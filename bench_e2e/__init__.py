"""`bench_e2e` — the repository's end-to-end benchmark (see README.md).

Drives the public API only (`repro.session`, `ServingSession`,
`EngineConfig`); nothing under `src/` imports or knows about it.
"""
