"""Staged, interpretable LLM relevance judgments for legal case retrieval.

The package covers the full workflow: corpus ingestion, demonstration
libraries with lexical-similarity demo selection, a two-layer judging
engine (material facts and legal facts, extracted then compared), agreement
and ranking metrics, and synthetic dataset construction. Import names
from their submodules (lexjudge.corpus, lexjudge.engine, ...); the
package root holds only __version__.
"""

__version__ = "0.1.0"
