"""Reference implementations the optimized code paths are tested against."""
