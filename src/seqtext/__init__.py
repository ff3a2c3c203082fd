"""Recurrent text classifiers (RNN / LSTM / GRU) on plain numpy.

The package covers the whole path from raw labeled text to scored
predictions: cleaning and vocabulary building, trainable embeddings,
three recurrent cells with exact hand-derived gradients, a dense + head
classifier, mini-batch training with SGD / RMSProp / Adam, and
confusion-matrix metrics. Everything is deterministic under a seed.
Each name is imported from the module that defines it, such as
``seqtext.engine`` or ``seqtext.cells``.
"""

__version__ = "0.1.0"
