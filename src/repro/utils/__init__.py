"""Small shared utilities: RNG helpers (:mod:`rng`), phase timers
(:mod:`timer`) and ASCII tables (:mod:`tables`), each imported from its
module."""
