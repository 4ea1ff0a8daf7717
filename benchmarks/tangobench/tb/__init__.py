"""tangobench internals; see ../README.md and ../run.py."""
