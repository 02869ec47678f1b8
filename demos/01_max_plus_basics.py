"""Max-plus arithmetic from the ground up: scalars, matrices, residuation.

Addition is maximum, multiplication is ordinary +, and -inf is the
additive identity.  Everything is exact rational arithmetic.
"""

from fractions import Fraction

from tropcheck import BOTTOM, Matrix, double_residual, left_residual
from tropcheck.semiring import tadd, tmul

print("scalars")
print("  2 (+) 5   =", tadd(2, 5), "      (tropical sum = max)")
print("  2 (x) 5   =", tmul(2, 5), "      (tropical product = +)")
print("  -inf (x) 3 =", tmul(BOTTOM, 3), " (-inf absorbs products)")
print("  1/2 (+) 1/3 =", tadd(Fraction(1, 2), Fraction(1, 3)), "(exact rationals)")

print()
print("matrices multiply by max of sums: (AB)[i][j] = max_k A[i][k] + B[k][j]")
a = Matrix([[0, -3], [0, 0]])
print("  A      =", a)
print("  A @ A  =", a.mul(a), " -> A is idempotent")

print()
print("residuation gives greatest solutions of one-sided inequalities:")
b = Matrix([[1], [2]])
col = Matrix([[0], [0]])
print("  greatest x with col @ x <= b:", left_residual(col, b))

print()
print("the double residual is the canonical regularity witness:")
e = Matrix([[0, -3, -3], [0, 0, -3], [0, 0, 0]])
w = double_residual(e)
print("  B = greatest X with E @ X @ E <= E =", w)
print("  E @ B @ E == E ?", e.mul(w).mul(e) == e)
