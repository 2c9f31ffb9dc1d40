"""Seeded request generators for the four benchmark workloads.

Every generator is a pure function of (workload, seed): the same seed gives
the same request bytes, and the daemon only ever sees the generated blocks.
METRICS.md explains why each workload exists and why its draw is stratified.
"""

import random

CATALOG_DEVICES = ["arria10_gt1150", "arria10_gx1150", "ku060", "vc709",
                   "stratixv", "tiny"]
DTYPES = ["float32", "fixed8_16"]
# stratixv/fixed8_16 is the soft-logic-bound pair: it gets its own workload.
LOGIC_BOUND_PAIR = ("stratixv", "fixed8_16")
DEVICE_PAIRS = [(d, t) for d in CATALOG_DEVICES for t in DTYPES
                if (d, t) != LOGIC_BOUND_PAIR]

# Conv layers as (I, O, R, C, K, stride, groups), per group, as in
# src/nn/network.cpp.
ALEXNET = [
    (3, 96, 55, 55, 11, 4, 1),
    (48, 128, 27, 27, 5, 1, 2),
    (256, 384, 13, 13, 3, 1, 1),
    (192, 192, 13, 13, 3, 1, 2),
    (192, 128, 13, 13, 3, 1, 2),
]
VGG16 = [
    (3, 64, 224, 224, 3, 1, 1), (64, 64, 224, 224, 3, 1, 1),
    (64, 128, 112, 112, 3, 1, 1), (128, 128, 112, 112, 3, 1, 1),
    (128, 256, 56, 56, 3, 1, 1), (256, 256, 56, 56, 3, 1, 1),
    (256, 256, 56, 56, 3, 1, 1), (256, 512, 28, 28, 3, 1, 1),
    (512, 512, 28, 28, 3, 1, 1), (512, 512, 28, 28, 3, 1, 1),
    (512, 512, 14, 14, 3, 1, 1), (512, 512, 14, 14, 3, 1, 1),
    (512, 512, 14, 14, 3, 1, 1),
]
_INCEPTION = [  # name, in, 1x1, 3x3 reduce, 3x3, 5x5 reduce, 5x5, pool, size
    ("3a", 192, 64, 96, 128, 16, 32, 32, 28),
    ("3b", 256, 128, 128, 192, 32, 96, 64, 28),
    ("4a", 480, 192, 96, 208, 16, 48, 64, 14),
    ("4b", 512, 160, 112, 224, 24, 64, 64, 14),
    ("4c", 512, 128, 128, 256, 24, 64, 64, 14),
    ("4d", 512, 112, 144, 288, 32, 64, 64, 14),
    ("4e", 528, 256, 160, 320, 32, 128, 128, 14),
    ("5a", 832, 256, 160, 320, 32, 128, 128, 7),
    ("5b", 832, 384, 192, 384, 48, 128, 128, 7),
]
GOOGLENET = [(3, 64, 112, 112, 7, 2, 1), (64, 64, 56, 56, 1, 1, 1),
             (64, 192, 56, 56, 3, 1, 1)]
for _, i, b1, r3, b3, r5, b5, pool, s in _INCEPTION:
    GOOGLENET += [(i, b1, s, s, 1, 1, 1), (i, r3, s, s, 1, 1, 1),
                  (r3, b3, s, s, 3, 1, 1), (i, r5, s, s, 1, 1, 1),
                  (r5, b5, s, s, 5, 1, 1), (i, pool, s, s, 1, 1, 1)]


def _unique(layers):
    out = []
    for layer in layers:
        if layer not in out:
            out.append(layer)
    return out


# synth_cold leaves out the three-input-channel stems (AlexNet conv1,
# GoogLeNet conv1, VGG conv1_1) and VGG's other 224x224 layer: one of them
# takes 0.25-6 s, so a single draw would decide a run's numbers.
COLD_LAYERS = _unique([l for l in ALEXNET + VGG16 + GOOGLENET
                       if l[0] != 3 and l[2] < 224])

# synth_logic_bound walks AlexNet conv3 (its floor needs 2719 seed
# evaluations and c_s relaxes once) and GoogLeNet 14x14 and 7x7 inception
# layers. The rest of the two networks takes 0.5-16 s per request on this
# pair: too few would fit in a run to repeat each one.
LOGIC_BOUND_LAYERS = [
    (256, 384, 13, 13, 3, 1, 1), (480, 192, 14, 14, 1, 1, 1),
    (16, 48, 14, 14, 5, 1, 1), (512, 64, 14, 14, 1, 1, 1),
    (832, 256, 7, 7, 1, 1, 1), (160, 320, 7, 7, 3, 1, 1),
    (32, 128, 7, 7, 5, 1, 1), (192, 384, 7, 7, 3, 1, 1),
    (832, 48, 7, 7, 1, 1, 1), (48, 128, 7, 7, 5, 1, 1),
]

# Option variants that change the canonical request text. min_util and
# top_k are not part of the sweep context, so a variant of an earlier request
# replays its sweep results from the SweepCache exact tier.
OPTION_VARIANTS = [("min_util", "0.7"), ("min_util", "0.75"),
                   ("top_k", "10"), ("top_k", "16")]

# deploy_fleet walks this fixed cycle of (networks, fleet, device, dtype);
# the seed draws the traffic weights. One cycle is a round of about 12 s at
# jobs 4 on 4 cores, so a run completes whole rounds and its throughput does
# not step with the request the --seconds window happens to cut. The
# stratixv/fixed8_16 entry answers `error no candidate design fits the
# device`.
DEPLOY_CYCLE = [
    (("alexnet",), 1, "arria10_gt1150", "float32"),
    (("alexnet", "vgg16"), 2, "ku060", "float32"),
    (("tiny",), 2, "tiny", "fixed8_16"),
    (("vgg16",), 1, "vc709", "float32"),
    (("alexnet",), 1, "stratixv", "fixed8_16"),
]

HOT_SET_SIZE = 64
ZIPF_EXPONENT = 1.0
HOT_SCHEDULE_LENGTH = 1 << 18


def layer_field(layer):
    i, o, r, c, k, stride, groups = layer
    text = f"{i},{o},{r},{c},{k}"
    if stride != 1 or groups != 1:
        text += f",{stride}"
    if groups != 1:
        text += f",{groups}"
    return text


def synth_block(layer, device, dtype, options):
    lines = ["sasynth-request v1", f"layer {layer_field(layer)}",
             f"device {device}", f"dtype {dtype}"]
    lines += [f"option {k} {v}" for k, v in options]
    return "\n".join(lines + ["end"]) + "\n"


def deploy_block(workload, fleet, device, dtype, options):
    lines = ["sasynth-deploy v1"]
    lines += [f"network {name} {weight}" for name, weight in workload]
    lines += [f"fleet {fleet}", f"device {device}", f"dtype {dtype}"]
    lines += [f"option {k} {v}" for k, v in options]
    return "\n".join(lines + ["end"]) + "\n"


def _rng(workload, seed):
    # A str seed is hashed with SHA-512, so the stream does not depend on
    # PYTHONHASHSEED or the process.
    return random.Random(f"{workload}:{seed}")


class _Unique:
    """Tracks the request identities already generated (everything the
    canonical request text holds; `jobs` is not part of it)."""

    def __init__(self):
        self.seen = set()

    def add(self, keys):
        """Adds every key, or none when one was seen already."""
        if any(key in self.seen for key in keys):
            return False
        self.seen.update(keys)
        return True


def _draw_unique(rng, unique, make_keys, draw):
    for _ in range(64):
        candidate = draw()
        if unique.add(make_keys(candidate)):
            return candidate
    raise RuntimeError("generator could not draw a unique request")


def _cold_round():
    """The fixed content of one synth_cold round, as groups of (layer,
    device, dtype, options). Layer j of COLD_LAYERS runs on device pair
    j mod 11; every third layer is followed by a request that differs only
    in an option, and every third-plus-one by one that differs only in H/W,
    so the SweepCache exact and hint tiers get traffic."""
    groups = []
    for j, layer in enumerate(COLD_LAYERS):
        device, dtype = DEVICE_PAIRS[j % len(DEVICE_PAIRS)]
        group = [(layer, device, dtype, [])]
        if j % 3 == 0:
            option = OPTION_VARIANTS[(j // 3) % len(OPTION_VARIANTS)]
            group.append((layer, device, dtype, [option]))
        elif j % 3 == 1:
            i, o, r, c, k, s, g = layer
            size = r + max(1, r // 8)
            group.append(((i, o, size, size, k, s, g), device, dtype, []))
        groups.append(group)
    return groups


COLD_ROUND_SIZE = sum(len(group) for group in _cold_round())
LOGIC_BOUND_ROUND_SIZE = len(LOGIC_BOUND_LAYERS)
DEPLOY_ROUND_SIZE = len(DEPLOY_CYCLE)


def _jittered_freq(rng):
    return f"{280 + rng.uniform(-0.5, 0.5):.3f}"


def cold_requests(seed, count, jobs_option=True, workload="synth_cold"):
    """synth_cold: unique single-layer requests in rounds of
    COLD_ROUND_SIZE. Every round sends the same layers, device pairs and
    variants in the same order (_cold_round); the seed draws each group's
    assumed clock (`option freq`) within half a MHz of the 280 MHz default.
    The clock makes every request new (it is part of the canonical text and
    of the sweep context) without changing the DSE work, so every round,
    and every seed, measures the same work."""
    rng = _rng(workload, seed)
    unique = _Unique()
    base = [("jobs", "4")] if jobs_option else []
    out = []
    while len(out) < count:
        for group in _cold_round():
            def key(freq):
                return [(layer, device, dtype, tuple(options), freq)
                        for layer, device, dtype, options in group]
            freq = _draw_unique(rng, unique, key,
                                lambda: _jittered_freq(rng))
            for layer, device, dtype, options in group:
                out.append(synth_block(layer, device, dtype,
                                       base + [("freq", freq)] + options))
    return out[:count]


def logic_bound_requests(seed, count):
    """synth_logic_bound: unique single-layer requests on stratixv/fixed8_16
    in rounds of LOGIC_BOUND_ROUND_SIZE. Every round walks
    LOGIC_BOUND_LAYERS in the same order; the seed draws each request's
    assumed clock as in cold_requests."""
    rng = _rng("synth_logic_bound", seed)
    unique = _Unique()
    device, dtype = LOGIC_BOUND_PAIR
    out = []
    while len(out) < count:
        for layer in LOGIC_BOUND_LAYERS:
            freq = _draw_unique(rng, unique, lambda f: [(layer, f)],
                                lambda: _jittered_freq(rng))
            out.append(synth_block(layer, device, dtype,
                                   [("jobs", "4"), ("freq", freq)]))
    return out[:count]


def hot_requests(seed):
    """synth_hot: a hot set of the first HOT_SET_SIZE requests of a
    synth_cold round (so every seed fills the cache with the same work) at
    the default jobs and seeded clocks, and a Zipf schedule of indices into
    it (rank order seeded). Returns (hot_set, schedule)."""
    hot_set = cold_requests(seed, HOT_SET_SIZE, jobs_option=False,
                            workload="synth_hot")
    rng = _rng("synth_hot.schedule", seed)
    ranks = list(range(HOT_SET_SIZE))
    rng.shuffle(ranks)
    weights = [1.0 / (n + 1) ** ZIPF_EXPONENT for n in range(HOT_SET_SIZE)]
    schedule = rng.choices(ranks, weights=weights, k=HOT_SCHEDULE_LENGTH)
    return hot_set, schedule


def deploy_requests(seed, count):
    """deploy_fleet: DEPLOY_CYCLE in order, repeated, each request with
    seeded weights (three decimals in [0.25, 4]), so every request is new
    while a run's work does not depend on the seed."""
    rng = _rng("deploy_fleet", seed)
    unique = _Unique()
    out = []
    while len(out) < count:
        for networks, fleet, device, dtype in DEPLOY_CYCLE:
            if len(out) >= count:
                break

            def draw():
                return tuple((name, f"{rng.uniform(0.25, 4.0):.3f}")
                             for name in networks)
            workload = _draw_unique(rng, unique, lambda w: [(w, fleet, device,
                                                             dtype)], draw)
            out.append(deploy_block(workload, fleet, device, dtype,
                                    [("jobs", "4")]))
    return out
