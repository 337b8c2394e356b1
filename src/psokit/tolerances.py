"""Every threshold pso-kit judges by, defined once and grouped by layer; a check
tolerance names the verdict rule that reads it: psocheck._verdict or cli._threshold_result."""

# matrix kernel (matops)
CONTRACTION_BOUND = 1 + 1e-10  # largest ||Z|| of a contraction, absolute; also theta in classify
HERMITIAN_TOL = 1e-12  # ||A - A*|| of a hermitian A in cayley, absolute
UNITARY_TOL = 1e-10  # ||U*U - I|| and the min sv of U - I in inverse_cayley, absolute
# inverse_cayley skips the SVD of U - I where 2/||X - I||_F, X its solve, exceeds UNITARY_TOL
CAYLEY_SOLVE_TOL = 1e-10  # + this: it covers the solve's backward error up to half of it, absolute
KREIN_TOL = 1e-10  # ||K*JK - J|| and ||KJK* - J|| of a Krein-unitary K, absolute
KREIN_DENOMINATOR_TOL = 1e-12  # min sv of K11 + K12 Z in interspherical, absolute
ORTHONORMAL_TOL = 1e-12  # ||V*V - I|| of a SubspaceBasis, absolute
RANK_TOL = 1e-12  # min sv of R in SubspaceBasis.span, relative to max(1, ||R||)
# is_singular's min sv, relative to 1 + ||m||; wandering_check's ||L* U^n L||, absolute,
SINGULARITY_TOL = 1e-10  # and with it the wandering check's tolerance (_threshold_result)

# term algebra (expfun)
DEGENERATE_EXPONENT_TOL = 1e-14  # |u| below which u is integrated as 0, absolute
JUMP_TOL = 1e-13  # jump at a breakpoint of a function to differentiate, absolute
TAIL_CUTOFF = 1e-16  # integrand envelope where quadrature tails are cut, absolute
QUADRATURE_TOL = 1e-10  # default rel_tol of inner_quadrature's refined pass, relative

# boundary triplets (triplets)
BOUNDARY_SINGULAR_TOL = 1e-12  # |gamma_plus| in char_value, relative to 1 + |gamma_minus|
DECOMPOSE_SINGULAR_TOL = 1e-12  # S(mu)'s is_singular_2x2 tol, also change_of_basis's; T1's in models
SURJECTIVITY_TOL = 1e-8  # is_singular tol of the surjectivity witness's boundary images
DOMAIN_JUMP_TOL = 1e-12  # jump in the maximal domain, relative to 1 + coefficient norm
GREEN_TOL = 1e-10  # Green identity defect, absolute; triplet_convert, green (_threshold_result)

# models
TWIST_TOL = 1e-12  # ||twist| - 1| of a ShiftModel, absolute
BOUNDARY_CONDITION_TOL = 1e-12  # ||T1 v- - v+|| of a sample, relative to 1 + ||v-||
SERIES_TAIL_TOL = 1e-14  # |t|^n where shift_defect's series is cut, absolute

# certification scans (psocheck)
PASS_ORTHOGONALITY = 1e-10  # normalized |(f_lam, f_nu)|, absolute (_verdict)
PASS_CONSTANCY = 1e-8  # |theta(lam) - theta(mu)|, absolute (_verdict)
PASS_INCLUSION = 1e-10  # normalized |b|, absolute (_verdict)
FAIL_THRESHOLD = 1e-2  # worst residual from which a scan fails, absolute (_verdict)
# band under the largest modulus estimate whose entries take their exact modulus, relative;
MODULUS_BAND_TOL = 1e-12  # far above the estimate's few units of roundoff (worst_entry)

# cli checks
CAYLEY_IDENTITY_TOL = 1e-11  # ||(A - iI)(U - I)x - 2ix||, absolute (_threshold_result)
GRAM_TOL = 1e-12  # ||G - I|| of the Haar Gram matrix, absolute (_threshold_result)
MOBIUS_TOL = 1e-8  # Krein defect and |Phi_K(theta_1) - theta_2|, absolute (_threshold_result)
