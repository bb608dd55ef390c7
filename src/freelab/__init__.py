"""freelab: numerical laboratory for microstate free entropy.

Modules
-------
rng          counter-based deterministic random streams, reusable scratch workspaces
matcore      Hermitian tuples, word traces, operator-norm test (LAPACK last), samplers
ncalg        operator-coefficient polynomials and difference quotients
spectra      one-variable spectral measures and entropy functionals
microstates  matricial microstate sets and volume/entropy estimators
theorems     named inequality and identity checks over the estimators
cli          command-line front end
"""

__version__ = "0.1.0"
