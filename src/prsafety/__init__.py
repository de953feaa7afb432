"""Psychological-safety analytics for pull request corpora."""
