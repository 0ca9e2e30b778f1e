"""Benchmark harness: prepared applications with cached functional runs,
shared across the per-table/per-figure benchmark files."""

from .apps import BUNDLES, AppBundle, PAPER_SIZES, get_bundle

__all__ = ["BUNDLES", "AppBundle", "PAPER_SIZES", "get_bundle"]
