"""Host-clock layer benchmark for the ``repro`` stack (see README.md here)."""
