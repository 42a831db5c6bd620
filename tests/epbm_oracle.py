"""Closed-form oracle for the EPBM5 block coefficients.

The map from N at block nodes 2..5 to the scaled derivative coefficients
v_1..v_4 is built in `expstab.integrators.epbm_tableau` by inverting a
Vandermonde matrix; here it is written out in the closed-form surds of the
Legendre node positions, as an independent check of that inversion.
"""
import math

import numpy as np


def closed_form_vmap() -> np.ndarray:
    s30 = math.sqrt(30.0)
    w1p = math.sqrt(75.0 + 4.0 * s30) / 12.0
    w1m = math.sqrt(75.0 - 4.0 * s30) / 12.0
    w2p = math.sqrt(10170.0 + 1104.0 * s30) / 24.0
    w2m = math.sqrt(10170.0 - 1104.0 * s30) / 24.0
    w3p = 7.0 * math.sqrt(1350.0 + 180.0 * s30) / 24.0
    w3m = 7.0 * math.sqrt(1350.0 - 180.0 * s30) / 24.0
    w4p = 7.0 * math.sqrt(150.0 + 20.0 * s30) / 8.0
    w4m = 7.0 * math.sqrt(150.0 - 20.0 * s30) / 8.0
    u1p = (3.0 + s30) / 12.0
    u1m = (3.0 - s30) / 12.0
    u2 = 7.0 * s30 / 24.0
    return np.array([
        [w1p + u1p, -w1m + u1m, w1m + u1m, -w1p + u1p],
        [-w2m - u2, w2p + u2, -w2p + u2, w2m - u2],
        [w3m + u2, -w3p - u2, w3p - u2, -w3m + u2],
        [-w4m, w4p, -w4p, w4m],
    ])
