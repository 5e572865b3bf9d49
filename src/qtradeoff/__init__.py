"""Tradeoff between internal two-qubit nonseparability and external classical
correlations: closed-form monogamy bound, brute-force oracle, classical-classical
state families, and a shot-noise simulation of the photonic tomography experiment.

The modules are the API: import public names from `qtradeoff.bound`, `oracle`,
`linalg`, `measures`, `states`, `tomo` and `cli`, e.g.
`from qtradeoff.bound import zeta`.
"""

__version__ = "0.1.0"
