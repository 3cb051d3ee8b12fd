"""bernkit: exact verification toolkit for Bernoulli-polynomial convolution
identities, their Eulerian-polynomial machinery, and the attached integer
sequences."""

from .polycore import (NEG_INFINITY, UniPoly, binomial, factorial,
                       falling_product, multinomial)
from .specialfns import (bernoulli_number, bernoulli_poly, eulerian_number,
                         eulerian_poly, higher_bernoulli_poly,
                         polylog_neg_check)
from .series import (TruncSeries, build_F_direct, build_F_eulerian, build_G,
                     exp_x, exp_zx, poly_at_series, x_over_expm1_pow)
from .convolution import (DCoeffTable, SeqTable, SnkResult,
                          VerificationReport,
                          a_coeff_list, a_jkn, a_jkn_from_u,
                          a_jkn_multinomial, a_sequence, c3_recurrence_residual,
                          c3_sequence, c_sequence, coeff_z_closed,
                          coeff_z_formula, coeff_z_thm8, d_coeffs,
                          degree_check, lemma5_coeffs, multisum_poly,
                          multisum_poly_multinomial, multisum_power, p_poly,
                          run_checks,
                          s_all_routes, s_direct, s_eulerian, s_poly,
                          s_series, seq_a,
                          seq_c, seq_c3, seq_checks, suite_checks,
                          theorem1_divisor, u_from_a_series, u_nu,
                          verify_bernoulli_cache, verify_cor9, verify_cor10,
                          verify_corollary,
                          verify_lemma4, verify_lemma5, verify_lemma7,
                          verify_polylog, verify_routes, verify_thm1,
                          verify_thm6, verify_thm8)

__version__ = "0.1.0"
