"""saladbench: word-salad diagnostics for text classifiers.

Generates invalid inputs via nine destructive transformations, measures a
model's response (agreement, confidence, calibration), and trains mitigation
strategies that teach models to recognize invalid inputs.
"""

__version__ = "0.1.0"

from .corpus import (Dataset, Example, LabelSet, TextInput, detokenize,
                     load_dataset, save_dataset, split_holdout, tokenize)
from .lexical import (TransformSpec, TransformedExample, apply_lexical,
                      reverse_tokens, shuffle_tokens, sort_tokens)
from .gradient import (ImportancePartition, apply_gradient, drop_tokens,
                       partition_by_importance, repeat_tokens, replace_tokens)
from .providers import EmbeddedProvider, HttpProvider, ReplayProvider
from .metrics import (MetricsReport, MetricsRow, agreement, build_report,
                      default_agreement, ece, mean_confidence)
