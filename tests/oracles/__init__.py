"""Reference implementations the production code is checked against.

Each oracle is a literal, tuple-at-a-time transcription of an operator whose
production version is vectorized.  Property tests run both on the same
inputs and require identical rows and identical meter charges; the
benchmarks time the production kernel against them.  Nothing under ``src/``
imports this package.
"""
