"""Test-only reference implementations (imported by nothing under ``src/``)."""
