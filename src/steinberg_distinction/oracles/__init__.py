"""Independent brute-force oracles cross-checking the symbolic layer.

The rational quaternion model check is imported from ``.quaternion``
itself, so that importing the flag oracle does not load it."""
