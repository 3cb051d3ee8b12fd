"""bernkit: exact verification toolkit for Bernoulli-polynomial convolution
identities, their Eulerian-polynomial machinery, and the attached integer
sequences.  The names below are the public API (README, "Library use");
every other name is imported from its module."""

from .polycore import UniPoly
from .specialfns import (bernoulli_number, bernoulli_poly, eulerian_number,
                         eulerian_poly)
from .series import higher_bernoulli_poly
from .convolution import (VerificationReport, coeff_z_thm8, degree_check,
                          p_poly, run_suite, s_direct, s_eulerian, s_poly,
                          s_series, verify_bernoulli_cache, verify_cor9,
                          verify_cor10, verify_corollary, verify_lemma4,
                          verify_lemma5, verify_lemma7, verify_polylog,
                          verify_routes, verify_thm1, verify_thm6,
                          verify_thm8)

__version__ = "0.1.0"
