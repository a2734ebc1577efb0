"""Unit conversions applied at configuration and reporting boundaries."""

import math

NATS_PER_BIT = math.log(2.0)


def dbm_to_mw(dbm: float) -> float:
    return 10.0 ** (dbm / 10.0)


def nats_to_bits(nats: float) -> float:
    return nats / NATS_PER_BIT
