"""The repo benchmark harness behind ``BENCHMARK.json`` (see ../README.md).

Everything here measures ``repro`` from the outside: public constructors,
the public ``EngineBackend`` hooks, delegating wrappers passed through public
constructor arguments, and replays of public functions on snapshots of a
workload's own inputs.  Nothing under ``src/`` is edited or monkey-patched.
"""
