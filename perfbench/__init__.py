"""End-to-end and per-layer benchmark of the MRPF reproduction (see README.md)."""
