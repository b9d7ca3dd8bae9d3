"""Paper-reported numbers (Tables I-IX) and row formatting helpers.

Every jobs/ entrypoint prints its measured rows next to these reference
numbers so EXPERIMENTS.md can diff paper vs reproduction. Values are
transcribed from the ICDE 2025 paper text.
"""
from __future__ import annotations

# Table I — benchmark statistics (counts by number of lines M)
PAPER_TABLE1 = {
    "Query": {"overall": 200, "1": 74, "2-4": 48, "5-7": 44, ">7": 34},
    "Repository": {"overall": 10161, "1": 3658, "2-4": 2540, "5-7": 2134, ">7": 1829},
}

# Table II — overall / with DA / without DA effectiveness
PAPER_TABLE2 = {
    ("Overall", "prec"): {"CML": 0.349, "DE-LN": 0.224, "Opt-LN": 0.287, "Qetch*": 0.256, "FCM": 0.454},
    ("Overall", "ndcg"): {"CML": 0.246, "DE-LN": 0.162, "Opt-LN": 0.211, "Qetch*": 0.179, "FCM": 0.347},
    ("With DA", "prec"): {"CML": 0.180, "DE-LN": 0.134, "Opt-LN": 0.160, "Qetch*": 0.123, "FCM": 0.398},
    ("With DA", "ndcg"): {"CML": 0.119, "DE-LN": 0.098, "Opt-LN": 0.118, "Qetch*": 0.105, "FCM": 0.302},
    ("Without DA", "prec"): {"CML": 0.538, "DE-LN": 0.318, "Opt-LN": 0.417, "Qetch*": 0.390, "FCM": 0.589},
    ("Without DA", "ndcg"): {"CML": 0.372, "DE-LN": 0.226, "Opt-LN": 0.303, "Qetch*": 0.246, "FCM": 0.456},
}

# Table III — effectiveness by number of lines M
PAPER_TABLE3 = {
    ("1", "prec"): {"CML": 0.453, "DE-LN": 0.328, "Opt-LN": 0.431, "Qetch*": 0.344, "FCM": 0.569},
    ("1", "ndcg"): {"CML": 0.327, "DE-LN": 0.240, "Opt-LN": 0.316, "Qetch*": 0.239, "FCM": 0.441},
    ("2-4", "prec"): {"CML": 0.384, "DE-LN": 0.192, "Opt-LN": 0.262, "Qetch*": 0.276, "FCM": 0.496},
    ("2-4", "ndcg"): {"CML": 0.297, "DE-LN": 0.136, "Opt-LN": 0.188, "Qetch*": 0.187, "FCM": 0.413},
    ("5-7", "prec"): {"CML": 0.283, "DE-LN": 0.174, "Opt-LN": 0.194, "Qetch*": 0.141, "FCM": 0.378},
    ("5-7", "ndcg"): {"CML": 0.187, "DE-LN": 0.125, "Opt-LN": 0.147, "Qetch*": 0.125, "FCM": 0.275},
    (">7", "prec"): {"CML": 0.175, "DE-LN": 0.104, "Opt-LN": 0.127, "Qetch*": 0.121, "FCM": 0.240},
    (">7", "ndcg"): {"CML": 0.092, "DE-LN": 0.073, "Opt-LN": 0.096, "Qetch*": 0.082, "FCM": 0.140},
}

# Table IV — DA breakdown (prec@50) by operator x window bucket
PAPER_TABLE4 = {
    "min": {"0-20": 0.351, "20-40": 0.336, "40-60": 0.360, "60-80": 0.282, "80-100": 0.272},
    "max": {"0-20": 0.368, "20-40": 0.345, "40-60": 0.372, "60-80": 0.265, "80-100": 0.270},
    "sum": {"0-20": 0.418, "20-40": 0.446, "40-60": 0.450, "60-80": 0.313, "80-100": 0.275},
    "avg": {"0-20": 0.454, "20-40": 0.416, "40-60": 0.439, "60-80": 0.337, "80-100": 0.317},
}

# Table V — FCM vs FCM-HCMAN
PAPER_TABLE5 = {
    ("Overall", "FCM"): (0.454, 0.347), ("Overall", "FCM-HCMAN"): (0.368, 0.267),
    ("1", "FCM"): (0.569, 0.441), ("1", "FCM-HCMAN"): (0.480, 0.353),
    ("2-4", "FCM"): (0.496, 0.275), ("2-4", "FCM-HCMAN"): (0.404, 0.322),
    ("5-7", "FCM"): (0.378, 0.235), ("5-7", "FCM-HCMAN"): (0.298, 0.206),
    (">7", "FCM"): (0.240, 0.140), (">7", "FCM-HCMAN"): (0.182, 0.101),
}

# Table VI — FCM vs FCM-DA (prec, ndcg)
PAPER_TABLE6 = {
    ("FCM", "Overall"): (0.454, 0.347),
    ("FCM", "With DA"): (0.398, 0.302),
    ("FCM", "Without DA"): (0.589, 0.456),
    ("FCM-DA", "Overall"): (0.385, 0.287),
    ("FCM-DA", "With DA"): (0.175, 0.116),
    ("FCM-DA", "Without DA"): (0.595, 0.458),
}

# Table VII — prec@50 over P1 x P2
PAPER_TABLE7 = {
    (15, 16): 0.384, (15, 32): 0.392, (15, 64): 0.414, (15, 128): 0.407, (15, 256): 0.405,
    (30, 16): 0.401, (30, 32): 0.424, (30, 64): 0.437, (30, 128): 0.435, (30, 256): 0.433,
    (60, 16): 0.413, (60, 32): 0.446, (60, 64): 0.454, (60, 128): 0.432, (60, 256): 0.427,
    (120, 16): 0.354, (120, 32): 0.375, (120, 64): 0.396, (120, 128): 0.376, (120, 256): 0.377,
    (240, 16): 0.334, (240, 32): 0.348, (240, 64): 0.357, (240, 128): 0.343, (240, 256): 0.312,
}

# Table VIII — index strategies: (prec, ndcg, query time seconds)
PAPER_TABLE8 = {
    "none": (0.494, 0.377, 374.0),
    "interval": (0.494, 0.377, 187.0),
    "lsh": (0.454, 0.347, 28.0),
    "hybrid": (0.454, 0.347, 12.0),
}

# Table IX — impact of N^-
PAPER_TABLE9 = {
    1: (0.147, 0.113), 2: (0.182, 0.139), 3: (0.212, 0.163), 4: (0.211, 0.161),
    5: (0.212, 0.162), 6: (0.213, 0.163), 7: (0.210, 0.161), 8: (0.208, 0.158),
}

METHOD_ORDER = ("CML", "DE-LN", "Opt-LN", "Qetch*", "FCM")


def fmt_row(label: str, values: dict[str, float]) -> str:
    """A label and each method's value in :data:`METHOD_ORDER`."""
    cells = "  ".join(f"{values.get(m, float('nan')):.3f}" for m in METHOD_ORDER)
    return f"{label:<22s} {cells}"
