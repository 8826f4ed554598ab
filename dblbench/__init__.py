"""The dblkit benchmark; see README.md and run.py."""
