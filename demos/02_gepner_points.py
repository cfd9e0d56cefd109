"""Gepner points: stability conditions the Serre functor merely rotates.

On a Dynkin quiver with Coxeter number h there is a stability condition
where applying the Serre functor equals the phase rotation by (h - 2)/h.
Its global dimension is exactly that rotation angle, the smallest value any
stability condition on the quiver can attain.
"""

from sdlab import (
    act,
    classify_dynkin,
    gepner_check,
    gepner_construct,
    gldim,
    parse_quiver,
)

for name in ("A2", "A3", "A5", "D4", "E6", "E7", "E8"):
    q = parse_quiver(name)
    h = classify_dynkin(q).coxeter_number
    mu = 1.0 - 2.0 / h
    sigma = gepner_construct(q)
    report = gepner_check(sigma, mu)
    print("%s  (h = %d)" % (name, h))
    print("  gldim      %.12f   target %.12f" % (gldim(sigma), mu))
    print("  S = rho_mu %s   (charges %s, slicing %s)"
          % (report.verdict, report.charge_match, report.slicing_match))
    for rec in sigma.records[:4]:
        print(
            "    id %2d  shift %d  phase %.6f  z %.4f%+.4fi"
            % (rec.ident, rec.shift, rec.phase, rec.z.real, rec.z.imag)
        )
    if len(sigma.records) > 4:
        print("    ... %d records total" % len(sigma.records))
    print()

# The property survives rotation but not much else: nudge one charge of the
# A3 point clockwise by 0.01 half-turns and both sides break together.
import cmath
import math

q = parse_quiver("A3")
sigma = gepner_construct(q)
rot = act(sigma, 0.2)
print("A3 rotated by 0.2:   gldim %.9f  verdict %s"
      % (gldim(rot), gepner_check(rot, 0.5).verdict))

from sdlab import make_stability

z = list(sigma.z_simples)
z[0] = z[0] * cmath.exp(-1j * math.pi * 0.01)
bent = make_stability(q, z)
print("A3 charge 1 jittered: gldim %.9f  verdict %s"
      % (gldim(bent), gepner_check(bent, 0.5).verdict))
