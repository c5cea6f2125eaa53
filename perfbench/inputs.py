"""Seeded workload inputs and their file bytes, built without evholo.

Every generator here is the benchmark's own code, so a change to the
library cannot change what the benchmark feeds it. The byte writers follow
the layouts documented in the README and in the docstrings of
``evholo.events`` (HEVS, CSV) and ``evholo.tensorio`` (HTEN, HARC); the
readers invert them for the output checks.
"""

from __future__ import annotations

import struct

import numpy as np

GEOMETRY = (346, 260)

_HEVS_RECORD = np.dtype({
    "names": ["x", "y", "t", "p"],
    "formats": ["<u2", "<u2", "<u8", "i1"],
    "offsets": [0, 2, 4, 12],
    "itemsize": 13,
})


class Events:
    """Plain event columns (int64 each) plus the sensor geometry."""

    def __init__(self, geometry, x, y, t, p):
        self.geometry = geometry
        self.x, self.y, self.t, self.p = (np.asarray(a, dtype=np.int64) for a in (x, y, t, p))

    def __len__(self):
        return len(self.t)

    def take(self, order) -> "Events":
        return Events(self.geometry, self.x[order], self.y[order], self.t[order], self.p[order])


def uniform_events(rng, n: int, duration_us: int) -> Events:
    """n events uniform over the sensor and over [0, duration_us), sorted by t."""
    w, h = GEOMETRY
    return Events(
        GEOMETRY,
        rng.integers(0, w, n),
        rng.integers(0, h, n),
        np.sort(rng.integers(0, duration_us, n)),
        rng.choice(np.array([-1, 1]), n),
    )


def periodic_events(rng, f0: float, duration_s: float, base_rate: float,
                    peak_rate: float) -> Events:
    """Gaussian blob oscillating horizontally at f0, sorted by t.

    Arrivals are a Poisson process at peak_rate thinned to the rate
    base + (peak - base) * (1 + sin(2 pi f0 t)) / 2. Polarity is +1 while the
    blob moves right and -1 while it moves left.
    """
    w, h = GEOMETRY
    t_s = np.sort(rng.uniform(0.0, duration_s, rng.poisson(peak_rate * duration_s)))
    phase = 2.0 * np.pi * f0 * t_s
    rate = base_rate + (peak_rate - base_rate) * (1.0 + np.sin(phase)) / 2.0
    keep = rng.uniform(0.0, peak_rate, len(t_s)) < rate
    t_s, phase = t_s[keep], phase[keep]
    n = len(t_s)
    sigma = min(w, h) / 12.0
    cx = (w - 1) / 2.0 + (w / 8.0) * np.sin(phase)
    x = np.clip(np.rint(cx + rng.normal(0.0, sigma, n)), 0, w - 1)
    y = np.clip(np.rint((h - 1) / 2.0 + rng.normal(0.0, sigma, n)), 0, h - 1)
    p = np.where(np.cos(phase) >= 0.0, 1, -1)
    return Events(GEOMETRY, x, y, np.floor(t_s * 1e6), p)


def gsg_param_arrays(rng, channels: int, rows: int, cols: int) -> dict:
    """Smooth random gating-block parameters near the identity point."""
    hw = cols // 2 + 1
    return {
        "dw_kernel": 0.4 * rng.standard_normal((channels, 3, 3)),
        "spectral_weight": 1.0 + 0.3 * (rng.standard_normal((channels, rows, hw))
                                        + 1j * rng.standard_normal((channels, rows, hw))),
        "ln_gamma": 1.0 + 0.2 * rng.standard_normal(channels),
        "ln_beta": 0.2 * rng.standard_normal(channels),
        "gate_weight": rng.standard_normal((channels, channels)) / channels,
        "gate_bias": 0.5 * rng.standard_normal(channels),
    }


# --- file layouts -----------------------------------------------------------

def hevs_bytes(ev: Events) -> bytes:
    """HEVS: magic, version 1, 3 reserved bytes, W u16, H u16, count u64,
    then 13-byte records {x u16, y u16, t u64, p i8}, all little-endian."""
    w, h = ev.geometry
    recs = np.empty(len(ev), dtype=_HEVS_RECORD)
    recs["x"], recs["y"], recs["t"], recs["p"] = ev.x, ev.y, ev.t, ev.p
    return b"HEVS" + struct.pack("<B3xHHQ", 1, w, h, len(ev)) + recs.tobytes()


def read_hevs(data: bytes) -> Events:
    if data[:4] != b"HEVS" or data[4] != 1:
        raise ValueError("not an HEVS v1 file")
    w, h, n = struct.unpack_from("<HHQ", data, 8)
    if len(data) != 20 + 13 * n:
        raise ValueError(f"HEVS length {len(data)} does not match count {n}")
    recs = np.frombuffer(data, dtype=_HEVS_RECORD, count=n, offset=20)
    return Events((w, h), recs["x"], recs["y"], recs["t"], recs["p"])


def csv_bytes(ev: Events) -> bytes:
    """CSV: a ``# geometry WxH`` line, the ``x,y,t,p`` header, one row per event."""
    w, h = ev.geometry
    rows = np.stack([ev.x, ev.y, ev.t, ev.p], axis=1).tolist()
    lines = [f"# geometry {w}x{h}", "x,y,t,p"]
    lines.extend(f"{x},{y},{t},{p}" for x, y, t, p in rows)
    return ("\n".join(lines) + "\n").encode("ascii")


_HTEN_CODES = {np.dtype("<f4"): 1, np.dtype("<f8"): 2, np.dtype("<u4"): 3}


def hten_bytes(arr: np.ndarray) -> bytes:
    """HTEN: magic, version 1, dtype code, ndim, reserved, ndim x u64 dims,
    then the row-major little-endian payload."""
    arr = np.ascontiguousarray(arr)
    dt = arr.dtype.newbyteorder("<")
    head = b"HTEN" + struct.pack("<BBBB", 1, _HTEN_CODES[dt], arr.ndim, 0)
    return head + struct.pack(f"<{arr.ndim}Q", *arr.shape) + arr.astype(dt).tobytes()


def harc_bytes(entries: list[tuple[str, np.ndarray]]) -> bytes:
    """HARC: magic, version 1, count u16, then {name_len u16, name, HTEN} per entry."""
    out = [b"HARC", struct.pack("<BH", 1, len(entries))]
    for name, arr in entries:
        raw = name.encode("utf-8")
        out += [struct.pack("<H", len(raw)), raw, hten_bytes(arr)]
    return b"".join(out)


def gsg_params_harc(params: dict) -> bytes:
    """The gating-block parameter archive, sections in the order gsg.py names."""
    w = params["spectral_weight"]
    return harc_bytes([
        ("dw_kernel", params["dw_kernel"]),
        ("spectral_weight_re", w.real),
        ("spectral_weight_im", w.imag),
        ("ln_gamma", params["ln_gamma"]),
        ("ln_beta", params["ln_beta"]),
        ("gate_weight", params["gate_weight"]),
        ("gate_bias", params["gate_bias"]),
    ])
