"""cliffrb benchmark: driver, job runner, tracing and checks (see run.py)."""
