"""The sqzq test suite; a package so that ``tests.oracles`` has its own name."""
