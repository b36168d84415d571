"""End-to-end benchmark of the repro stack (see bench/README.md)."""
