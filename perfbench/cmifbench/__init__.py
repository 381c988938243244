"""The end-to-end and per-layer benchmark of the CMIF serving pyramid."""
