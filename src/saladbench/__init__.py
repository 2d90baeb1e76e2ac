"""saladbench: word-salad diagnostics for text classifiers.

Generates invalid inputs via nine destructive transformations, measures a
model's response (agreement, confidence, calibration), and trains mitigation
strategies that teach models to recognize invalid inputs.
"""

__version__ = "0.1.0"
