"""Write schur_reference.json: Schur series synthesized in 50-digit
arithmetic, for d = 2 parameter sets near the unit sphere.

Each case is 25 parameters of one operator norm (0.9, 0.99, 0.999), drawn
from a fixed seed and stored as exact doubles.  Its reference is the
order-24 series of those doubles, computed with mpmath by the textbook
backward step f = (1 + g a†)^(-1) (a + g), g = z rho_R f' rho_L^(-1), and
written with 40 significant digits.  Tests read only the JSON, so mpmath is
needed only to regenerate it:

    PYTHONPATH=src python tests/data/make_schur_reference.py
"""

import json
from pathlib import Path

import mpmath as mp
import numpy as np

from cmvkit.schur import SchurParameters, parameters_to_json

D, ORDER, LENGTH, SEED = 2, 24, 25, 20261018
NORMS = (0.9, 0.99, 0.999)
mp.mp.dps = 50


def _parameters(top, rng):
    alphas = []
    for _ in range(LENGTH):
        g = rng.standard_normal((D, D)) + 1j * rng.standard_normal((D, D))
        alphas.append(g * (top / np.linalg.norm(g, 2)))
    return SchurParameters(D, tuple(alphas))


def _mp(a):
    return mp.matrix([[mp.mpc(complex(x)) for x in row] for row in a])


def _dagger(m):
    return m.transpose_conj()


def _mul(f, g):
    return [sum((f[i] * g[k - i] for i in range(k + 1)), mp.zeros(D, D)) for k in range(ORDER + 1)]


def _inverse(f):
    inv0 = mp.inverse(f[0])
    out = [inv0]
    for k in range(1, ORDER + 1):
        acc = sum((f[i] * out[k - i] for i in range(1, k + 1)), mp.zeros(D, D))
        out.append(-inv0 * acc)
    return out


def _step(a, f):
    one = mp.eye(D)
    rho_l = mp.sqrtm(one - _dagger(a) * a)
    rho_r = mp.sqrtm(one - a * _dagger(a))
    g = [mp.zeros(D, D)] + [rho_r * c * mp.inverse(rho_l) for c in f[:ORDER]]
    den = [one + g[0] * _dagger(a)] + [c * _dagger(a) for c in g[1:]]
    num = [a + g[0]] + g[1:]
    return _mul(_inverse(den), num)


def _reference(p):
    f = [mp.zeros(D, D) for _ in range(ORDER + 1)]
    for a in reversed(p.alphas):
        f = _step(_mp(a), f)
    return [[[mp.nstr(mp.re(c[r, s]), 40), mp.nstr(mp.im(c[r, s]), 40)]
             for r in range(D) for s in range(D)] for c in f]


def main():
    rng = np.random.default_rng(SEED)
    cases = []
    for top in NORMS:
        p = _parameters(top, rng)
        cases.append({"norm": top, "parameters": parameters_to_json(p), "reference": _reference(p)})
    out = Path(__file__).with_name("schur_reference.json")
    out.write_text(json.dumps({"order": ORDER, "cases": cases}, indent=1) + "\n")


if __name__ == "__main__":
    main()
