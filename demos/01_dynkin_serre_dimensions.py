"""Serre dimensions across the small Dynkin quivers.

The upper and lower Serre dimensions are read off the shift support of the
Serre orbit S^n G of the projective generator.  On a Dynkin quiver with
Coxeter number h both converge to (h - 2)/h, and the window estimate at
n_max = 10h already sits within a couple percent.
"""

from fractions import Fraction

from sdlab import classify_dynkin, parse_quiver, sdim_estimate

NAMES = ("A2", "A3", "A4", "A5", "D4", "D5", "E6")

print("quiver   h   exact    upper      lower      window error")
for name in NAMES:
    q = parse_quiver(name)
    h = classify_dynkin(q).coxeter_number
    dims = sdim_estimate(q, n_max=10 * h)
    target = Fraction(h - 2, h)
    err = max(abs(dims.upper - float(target)), abs(dims.lower - float(target)))
    print(
        "%-6s %3d   %-7s %.6f   %.6f   %.4f"
        % (name, h, target, dims.upper, dims.lower, err)
    )

print()
print("convergence on A3 (h = 4, limit 1/2):")
q = parse_quiver("A3")
for n_max in (8, 16, 32, 64, 128):
    dims = sdim_estimate(q, n_max=n_max)
    print(
        "  n_max %4d   upper %.6f   lower %.6f"
        % (n_max, dims.upper, dims.lower)
    )

# The Kronecker quiver is not Dynkin: the orbit never closes up, S^n G sits
# in the one shift n - 1, and both dimensions are exactly 1.
q = parse_quiver("K2")
dims = sdim_estimate(q, n_max=60)
print()
print(
    "K2 at n_max 60: upper %.6f  lower %.6f  exact %s"
    % (dims.upper, dims.lower, dims.exact)
)
