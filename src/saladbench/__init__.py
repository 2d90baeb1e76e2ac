"""saladbench: word-salad diagnostics for text classifiers.

Generates invalid inputs via nine destructive transformations, measures a
model's response (agreement, confidence, calibration), and trains mitigation
strategies that teach models to recognize invalid inputs.
"""

import os

# This program's matrices are tiny, so OpenBLAS's worker thread only costs start-up
# and CPU time; numpy loads here, before any saladbench module is compiled.
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
import numpy  # noqa: E402,F401

__version__ = "0.1.0"
