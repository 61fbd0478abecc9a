"""End-to-end benchmark of the GNNUnlock reproduction (see run.py)."""
