"""The expected counting constants, one fan at a time.

alpha is an exact rational from the dual effective cone, c_P an exact
rational from the hyperbola polytope, and tau = 2^-rho * omega_inf *
prod_p omega_p combines an Euler product, with a proven error bound, and
the exact archimedean volume omega_inf = 2^n |Sigma_max|.
"""

from toricount import (alpha_constant, builtin_fan, c_p_constant,
                       class_lattice, hyperbola_polytope, tamagawa)


def main():
    print(f"{'fan':6} {'alpha':>6} {'c_P':>4} {'euler':>9} {'omega_inf':>10} "
          f"{'tau':>8} {'tau error':>9} {'alpha*tau':>9}")
    for name in ("P1", "P2", "P1xP1", "F1"):
        lat = class_lattice(builtin_fan(name))
        classes = [list(c) for c in lat.classes]
        omega = list(lat.anticanonical)

        alpha = alpha_constant(classes, omega)
        # triangulation order must not matter
        assert alpha == alpha_constant(classes, omega, order="revlex")

        poly = hyperbola_polytope([[1] * lat.rank], [1] * lat.rank)
        cp = c_p_constant(poly)["exact"]

        rep = tamagawa(lat, p_max=2000)
        tau = rep["tau"]["value"]
        print(f"{name:6} {str(alpha):>6} {str(cp):>4} "
              f"{rep['euler']['value']:9.5f} "
              f"{rep['omega_inf']['value']:10g} {tau:8.4f} "
              f"{rep['tau']['error']:9.1e} {float(alpha) * tau:9.4f}")


if __name__ == "__main__":
    main()
