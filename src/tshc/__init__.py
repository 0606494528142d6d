"""Task-separated hill climbing: encode deterministic motion tasks into
small neural-network controllers without gradients."""

__version__ = "0.1.0"
