"""The canonical cross-chain pipeline benchmark (see README.md here)."""
