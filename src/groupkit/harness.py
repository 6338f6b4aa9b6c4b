"""Exhaustive verification of the direct-extension property over a catalog.

An extension instance packages the premises: an internal direct splitting
G = H·K, a normal H0 with H0 ≅ H, and G/H0 ≅ K.  The headline check asks,
for every instance over every catalog group, whether H0 has a normal direct
complement; a violation would be a falsification artifact and is serialized
in full.

Whether H0 has a complement depends only on H0, so the verifier does not
build instances one by one.  ``premise_classes`` gives every normal subgroup
N the key (class of N, class of G/N) from ``IsoCache.class_of``, computed in
the parent's indices.  A normal N with a direct complement C has G/N ≅ C, so
only the normals of a side's class with no complement build a quotient; an
oriented splitting (H, K), one entry of ``splitting_sides`` (each side H
with its stored complements K), meets the normals under (class of H, class
of K).  Counting orientations per key gives the instance count and the
distinct H0s; each H0 is checked once.  Only ``extension_instances`` pairs
splittings with normals, building two ``Iso`` witnesses per instance; the
verifier builds them only for an H0 with no complement.  The property suite,
ten checks in ``_PROPERTIES``, walks the same per-side relation.
"""

from __future__ import annotations

import time
from collections import Counter
from collections.abc import Iterator
from math import prod

from .catalog import CatalogEntry, canonical_json, group_to_json_dict
from .core import DEFAULT_ORDER_CAP, Cyclic, Group, Product, Record, Semidirect, construct, memo
from .errors import NotPrime, OrderBound
from .iso import Iso, IsoCache, find_isomorphism
from .subgroups import (
    DEFAULT_LATTICE_CAP,
    Subgroup,
    _is_prime,
    _normals_of_order,
    all_subgroups,
    center,
    center_of,
    check_lattice_cap,
    derived_of,
    derived_subgroup,
    generate_subgroup,
    is_normal_bits,
    members_of,
    normal_subgroups,
    quotient,
    subgroup_as_group,
    whole_subgroup,
)
from .decomposition import (
    _combine,
    _side_index,
    direct_complements,
    factor_classes,
    is_directly_decomposable,
    join_bits,
    remak_decomposition,
    splitting_sides,
)


class ExtensionInstance(Record):
    """Premises of the direct-extension check for one (splitting, H0) choice."""

    parent: Group
    h0: Subgroup
    h: Subgroup
    k: Subgroup
    iso_h: Iso  # H0 (extracted) -> H (extracted)
    iso_k: Iso  # G/H0 -> K (extracted)


class TheoremResult(Record):
    instance: ExtensionInstance
    witness: Subgroup | None

    @property
    def ok(self) -> bool:
        return self.witness is not None


class Premises(Record):
    """The premises of one group, joined by isomorphism class and counted.

    ``count`` is the number of instances and ``h0s`` the distinct H0s
    sorted by bits.  ``ids`` maps each splitting side's bits to its class,
    and ``buckets`` each key (class of N, class of G/N) to its normals N in
    ``normal_subgroups`` order, only for the N of some side's class (every
    oriented key starts with one); the ids are those of the first call's cache.
    """

    count: int
    h0s: tuple[Subgroup, ...]
    ids: dict[int, int]
    buckets: dict[tuple[int, int], tuple[Subgroup, ...]]


def premise_classes(group: Group, *, cap: int = DEFAULT_LATTICE_CAP,
                    cache: IsoCache | None = None) -> Premises:
    """Every premise of the extension check, counted without witnesses.

    Only normals whose order is that of some normal with a direct complement
    (a splitting side) are classified; the others can never be an H0.  Each
    is classified as a subgroup, in the parent's indices.  When N has a
    direct complement C, G = N×C gives G/N ≅ C (the second isomorphism
    theorem), so the class of G/N is that of its first complement, already
    known.  Only a normal with no complement builds its quotient table, and
    only when N is of some side's class: any other N has a key no oriented
    splitting has, whatever G/N is.  A normal that breaks the theorem is of
    the class of the H it is isomorphic to and has no complement, so it is
    always classified by its quotient.  The count is Σ over the keys some
    oriented splitting has of (orientations with that key) × (bucket size).
    ``cache`` supplies the class ids; the count and the H0s do not depend on
    it.  Memoized.
    """
    check_lattice_cap(group, cap)

    def build() -> Premises:
        classes = cache or IsoCache()
        sides = splitting_sides(group, cap=cap)
        orders = {h.order for h, _ in sides}
        candidates = [n for n in normal_subgroups(group, cap=cap) if n.order in orders]
        # every splitting side is such a normal, so ids holds the class of each
        ids = {n.bits: classes.class_of(n) for n in candidates}
        side_classes = {ids[h.bits] for h, _ in sides}
        buckets: dict[tuple[int, int], list[Subgroup]] = {}
        for n in candidates:
            # G/N ≅ C for a direct complement C; only the others build G/N
            comps = direct_complements(group, n, cap=cap)
            if comps:
                quotient_id = ids[comps[0].bits]
            elif ids[n.bits] in side_classes:
                quotient_id = classes.class_of(whole_subgroup(quotient(group, n).target))
            else:
                continue
            buckets.setdefault((ids[n.bits], quotient_id), []).append(n)
        oriented = Counter((ids[h.bits], ids[k.bits]) for h, comps in sides for k in comps)
        used = [key for key in oriented if key in buckets]
        # distinct keys hold disjoint buckets, so no H0 is listed twice
        h0s = sorted((h0 for key in used for h0 in buckets[key]), key=lambda h0: h0.bits)
        return Premises(sum(oriented[key] * len(buckets[key]) for key in used), tuple(h0s),
                        ids, {key: tuple(ns) for key, ns in buckets.items()})

    return memo(group, "premises", build)


def extension_instances(group: Group, *, cap: int = DEFAULT_LATTICE_CAP,
                        cache: IsoCache | None = None) -> list[ExtensionInstance]:
    """Every way the premises hold: each side H with each of its complements
    K, crossed with the normals in the ``premise_classes`` bucket of (H, K)."""
    return _instances_of(group, None, cap=cap, cache=cache or IsoCache())


def _instances_of(group: Group, h0_bits: set[int] | None, *, cap: int,
                  cache: IsoCache) -> list[ExtensionInstance]:
    """The instances of ``extension_instances`` whose H0 is in ``h0_bits``
    (all for None), in its order.  The buckets are cut to those H0s first,
    so no group, quotient, ``Iso`` or record is built for any other."""
    premises = premise_classes(group, cap=cap, cache=cache)
    buckets = premises.buckets
    if h0_bits is not None:
        buckets = {key: [n for n in ns if n.bits in h0_bits] for key, ns in buckets.items()}
    out = []
    for h, comps in splitting_sides(group, cap=cap):
        for k in comps:
            hits = buckets.get((premises.ids[h.bits], premises.ids[k.bits]), ())
            if not hits:
                continue
            h_group, _ = subgroup_as_group(h)
            k_group, _ = subgroup_as_group(k)
            for h0 in hits:
                h0_group, _ = subgroup_as_group(h0)
                q_group = quotient(group, h0).target
                out.append(
                    ExtensionInstance(
                        group, h0, h, k,
                        Iso(h0_group, h_group, cache.iso_map(h0_group, h_group)),
                        Iso(q_group, k_group, cache.iso_map(q_group, k_group)),
                    )
                )
    return out


def check_direct_extension(group: Group, instance: ExtensionInstance, *,
                           cap: int = DEFAULT_LATTICE_CAP) -> TheoremResult:
    """Find a normal direct complement for the instance's H0.

    The witness is the canonically first complement; absence marks the
    instance as a violation (which, for finite groups, must never happen).
    """
    comps = direct_complements(group, instance.h0, cap=cap)
    return TheoremResult(instance, comps[0] if comps else None)


# ---------------------------------------------------------------------------
# property suites: one check per statement, each yielding its failures

def _prop_2_1(group: Group, h0s, cap: int, cache: IsoCache) -> Iterator[dict]:
    # subgroups of an internal product split along it: L ⊇ H gives L = H·(L∩K);
    # H and L∩K lie in L and meet trivially, so |L∩K| = |L|/|H| says it.
    # The supersets of H, with their quotas |L|/|H|, are taken once per H
    subs = all_subgroups(group, cap=cap)
    for h, comps in splitting_sides(group, cap=cap):
        h_bits = h.bits
        above = [(l.bits, l.order // h.order, l) for l in subs if not h_bits & ~l.bits]
        for k in comps:
            k_bits = k.bits
            for l_bits, quota, l in above:
                if (l_bits & k_bits).bit_count() != quota:
                    yield {"h": h.members(), "k": k.members(), "l": l.members()}


def _prop_2_2(group: Group, h0s, cap: int, cache: IsoCache) -> Iterator[dict]:
    # derived group and centre distribute over a splitting: D(H), D(K) lie in
    # G′ and Z(H), Z(K) in Z(G) (the other factor centralises each), and each
    # pair meets trivially, so the products are the whole exactly when the
    # orders multiply to it.  Both orders are taken once per side, and each
    # splitting {H, K} is tested once, from its side first in canonical order
    sides = splitting_sides(group, cap=cap)
    index = _side_index(group, cap=cap)
    g_derived = derived_subgroup(group)
    g_center = center(group)
    side_orders = [(derived_of(group, h).order, center_of(group, h).order) for h, _ in sides]
    for i, (h, comps) in enumerate(sides):
        h_derived, h_center = side_orders[i]
        for k in comps:
            j = index[k.bits]
            if j < i:
                continue
            k_derived, k_center = side_orders[j]
            if (h_derived * k_derived != g_derived.order
                    or h_center * k_center != g_center.order):
                yield {"h": h.members(), "k": k.members()}


def _coprime_sides(group: Group, cap: int, cache: IsoCache) -> dict[int, list[Subgroup]]:
    """Each side's bits, mapped to the sides coprime to it by ``factor_classes``
    in canonical order; memoized, whichever cache numbers the classes."""
    def build() -> dict[int, list[Subgroup]]:
        factors = [h for h, _ in splitting_sides(group, cap=cap)]
        classes = {a.bits: factor_classes(a, cap=cap, cache=cache) for a in factors}
        # the factors coprime to each class set that occurs, in canonical order
        coprime = {key: [a for a in factors if classes[a.bits].isdisjoint(key)]
                   for key in set(classes.values())}
        return {a.bits: coprime[classes[a.bits]] for a in factors}

    return memo(group, "coprime_sides", build)


def _prop_2_3(group: Group, h0s, cap: int, cache: IsoCache) -> Iterator[dict]:
    # direct factors coprime by ``factor_classes`` meet trivially and combine into one
    index = _side_index(group, cap=cap)
    coprime = _coprime_sides(group, cap, cache)
    for i, (a, _) in enumerate(splitting_sides(group, cap=cap)):
        for b in coprime[a.bits]:
            if index[b.bits] < i:
                continue
            reason = _combine(group, a, b, cap=cap)
            if reason is not None:
                yield {"a": a.members(), "b": b.members(), "reason": reason}


def _cor_2_1(group: Group, h0s, cap: int, cache: IsoCache) -> Iterator[dict]:
    # the projection of a factor coprime to B onto C is again a direct factor.
    # For G = B×C and A ⊴ G the projection is π_C(A) = A·B ∩ C: each
    # a = b·c in A has c = b⁻¹a in A·B ∩ C, and each c = a·b in A·B ∩ C
    # has a = b⁻¹c (B and C commute), so π_C(a) = c.  ``join_bits`` keeps
    # the join prop_2_3 made for the pair.  The trivial factor is left out:
    # its image is 1, a direct factor of every group.  Each side B is walked
    # once, so its coprime factors and their joins with it are taken once
    index = _side_index(group, cap=cap)
    coprime = _coprime_sides(group, cap, cache)
    for b, comps in splitting_sides(group, cap=cap):
        joins = [(a, join_bits(group, a, b)) for a in coprime[b.bits] if a.order > 1]
        for c in comps:
            for a, ab_bits in joins:
                bits = ab_bits & c.bits
                if bits not in index:
                    yield {"a": a.members(), "b": b.members(),
                           "c": c.members(), "image": members_of(bits)}


def _decomposable(group: Group, cap: int) -> frozenset[int]:
    """The bits of the directly decomposable normals; memoized."""
    return memo(group, "decomposable", lambda: frozenset(
        d.bits for d in normal_subgroups(group, cap=cap)
        if is_directly_decomposable(group, d, cap=cap)))


def _prop_2_4(group: Group, h0s, cap: int, cache: IsoCache) -> Iterator[dict]:
    # directly decomposable normal subgroups distribute over the
    # indecomposable factors, and the quotient splits along their images.
    # The Hᵢ∩D lie in independent factors, so their join has order ∏|Hᵢ∩D|
    # and is D exactly when that product is |D|.  Then the images HᵢD/D are
    # normal and generate G/D, and their orders |Hᵢ|/|Hᵢ∩D| multiply to
    # |G|/|D|, so they form a direct product: the quotient cannot fail to
    # split once the order test passes.
    remak = remak_decomposition(group, cap=cap)
    decomposable = _decomposable(group, cap)
    for d in normal_subgroups(group, cap=cap):
        if d.bits not in decomposable:
            continue
        if prod((hi.bits & d.bits).bit_count() for hi in remak.factors) != d.order:
            yield {"d": d.members(), "kind": "factor product"}


def _prop_2_5(group: Group, h0s, cap: int, cache: IsoCache) -> Iterator[dict]:
    # T normal with T' = T∩G' forces T' directly decomposable.  T' is
    # characteristic in T ⊴ G, so it is normal and classified by ``_decomposable``
    g_derived = derived_subgroup(group)
    decomposable = _decomposable(group, cap)
    for t in normal_subgroups(group, cap=cap):
        t_derived = derived_of(group, t)
        if t_derived.bits != t.bits & g_derived.bits:
            continue
        if t_derived.bits not in decomposable:
            yield {"t": t.members(), "t_derived": t_derived.members()}


# the premise-only identities, one evaluation per H0 that occurs in an instance

def _lemma_4_1a(group: Group, h0s, cap: int, cache: IsoCache) -> Iterator[dict]:
    g_derived = derived_subgroup(group)
    for h0 in h0s:
        if derived_of(group, h0).bits != h0.bits & g_derived.bits:
            yield {"h0": h0.members()}


def _lemma_4_1b(group: Group, h0s, cap: int, cache: IsoCache) -> Iterator[dict]:
    # |M·H0| = |M||H0|/|M∩H0| covers G exactly when it equals |G|, so an
    # M with M∩H0 = H0′ must have order |G:H0|·|H0′|
    normals_of_order = _normals_of_order(group, cap=cap)
    for h0 in h0s:
        h0_derived = derived_of(group, h0)
        if not any(m.bits & h0.bits == h0_derived.bits for m in normals_of_order.get(
                group.order // h0.order * h0_derived.order, ())):
            yield {"h0": h0.members()}


def _lemma_4_2a(group: Group, h0s, cap: int, cache: IsoCache) -> Iterator[dict]:
    g_center = center(group)
    for h0 in h0s:
        if center_of(group, h0).bits != h0.bits & g_center.bits:
            yield {"h0": h0.members()}


def _lemma_4_2b(group: Group, h0s, cap: int, cache: IsoCache) -> Iterator[dict]:
    # Every subgroup of Z(G) is normal in G, so any complement of Z(H0) in
    # Z(G) is among the normals inside Z(G)
    normals_of_order = _normals_of_order(group, cap=cap)
    g_center = center(group)
    for h0 in h0s:
        h0_center = center_of(group, h0)
        if h0_center.bits & ~g_center.bits:
            yield {"h0": h0.members(), "reason": "Z(H0) not inside Z(G)"}
        elif not any(m.bits & h0_center.bits == 1 and not m.bits & ~g_center.bits
                     for m in normals_of_order.get(g_center.order // h0_center.order, ())):
            yield {"h0": h0.members()}


# the report's keys, in the report's order, each with its check
_PROPERTIES = (
    ("prop_2_1", _prop_2_1), ("prop_2_2", _prop_2_2), ("prop_2_3", _prop_2_3),
    ("cor_2_1", _cor_2_1), ("prop_2_4", _prop_2_4), ("prop_2_5", _prop_2_5),
    ("lemma_4_1a", _lemma_4_1a), ("lemma_4_1b", _lemma_4_1b),
    ("lemma_4_2a", _lemma_4_2a), ("lemma_4_2b", _lemma_4_2b),
)


def property_suite(group: Group, *, cap: int = DEFAULT_LATTICE_CAP,
                   cache: IsoCache | None = None,
                   instances: list[ExtensionInstance] | None = None) -> dict[str, dict]:
    """Run every decomposition identity and the premise-only lemma identities.

    Returns {check name: {"pass": bool, "failures": [witness dicts]}}, one
    entry per ``_PROPERTIES`` check in its order; the failure lists stay
    empty unless a statement is falsified.  The premise lemmas run over the
    H0s of ``instances`` when given, else over those of ``premise_classes``.

    A check reads only the H0s and memoized per-group kernels, never
    another check's results, and walks ``splitting_sides`` (each side H with
    its stored complements K), so failure lists are reproducible.  The
    pieces two checks share are memoized: the sides coprime to each side
    (prop_2_3, cor_2_1) and the directly decomposable normals (prop_2_4,
    prop_2_5).  prop_2_3 makes one join A·B per unordered coprime pair
    (``join_bits``); cor_2_1 reads the projection π_C(A) = A·B ∩ C from it.
    """
    check_lattice_cap(group, cap)
    cache = cache or IsoCache()
    if instances is None:
        h0s = premise_classes(group, cap=cap, cache=cache).h0s
    else:
        h0s = sorted({inst.h0.bits: inst.h0 for inst in instances}.values(),
                     key=lambda h0: h0.bits)
    failures = {name: list(check(group, h0s, cap, cache)) for name, check in _PROPERTIES}
    return {name: {"pass": not found, "failures": found} for name, found in failures.items()}


# ---------------------------------------------------------------------------
# the split / non-split extension pair

class CounterexampleBundle(Record):
    """One group carrying a split and a non-split extension with equal ends.

    checks map names to True/False, or None when a check was skipped
    because the subgroup scan exceeds the lattice cap.
    """

    p: int
    group: Group
    n_split: Subgroup
    t_split: Subgroup
    n_nonsplit: Subgroup
    checks: dict[str, bool | None]

    @property
    def all_pass(self) -> bool:
        return all(v for v in self.checks.values() if v is not None)


def build_split_counterexample(p: int, *,
                               lattice_cap: int = DEFAULT_LATTICE_CAP) -> CounterexampleBundle:
    """Build (A ⋉ (B×C)) × D with all four parts cyclic of order p.

    A acts by shearing C along B, so B×C is a split normal subgroup while
    the central C×D admits no complement at all even though both have the
    same kernel and quotient type.
    """
    # the bound first: trial division would never finish on a huge prime
    if p ** 4 > DEFAULT_ORDER_CAP:
        raise OrderBound(p ** 4, DEFAULT_ORDER_CAP)
    if not _is_prime(p):
        raise NotPrime(f"{p} is not prime")
    shear = tuple(b * p + (c + b) % p for b in range(p) for c in range(p))
    inner = Semidirect(Product(Cyclic(p), Cyclic(p)), Cyclic(p), ((1, shear),))
    group = construct(Product(inner, Cyclic(p)), name=f"split-counterexample-p{p}")

    def idx(a: int, b: int, c: int, d: int) -> int:
        return ((a * p + b) * p + c) * p + d

    n_split = generate_subgroup(group, (idx(0, 1, 0, 0), idx(0, 0, 1, 0)))
    t_split = generate_subgroup(group, (idx(1, 0, 0, 0), idx(0, 0, 0, 1)))
    n_nonsplit = generate_subgroup(group, (idx(0, 0, 1, 0), idx(0, 0, 0, 1)))

    cp2 = construct(Product(Cyclic(p), Cyclic(p)))
    checks: dict[str, bool | None] = {}

    # subgroups T, N with T∩N = 1 have |TN| = |T|·|N|, so TN = G by orders
    checks["split_has_complement"] = (
        is_normal_bits(group, n_split.bits)
        and t_split.bits & n_split.bits == 1
        and t_split.order * n_split.order == group.order
    )

    checks["nonsplit_kernel_central"] = not (n_nonsplit.bits & ~center(group).bits)

    q_nonsplit = quotient(group, n_nonsplit)
    checks["nonsplit_quotient_elementary"] = (
        find_isomorphism(q_nonsplit.target, cp2) is not None
    )

    if group.order <= lattice_cap:
        checks["nonsplit_has_no_complement"] = not any(
            t.bits & n_nonsplit.bits == 1 and t.order * n_nonsplit.order == group.order
            for t in all_subgroups(group, cap=lattice_cap)
        )
    else:
        checks["nonsplit_has_no_complement"] = None

    elementary4 = construct(
        Product(Product(Cyclic(p), Cyclic(p)), Product(Cyclic(p), Cyclic(p)))
    )
    checks["not_isomorphic_to_elementary"] = find_isomorphism(group, elementary4) is None

    q_split = quotient(group, n_split)
    checks["kernels_quotients_match"] = (
        find_isomorphism(subgroup_as_group(n_split)[0], cp2) is not None
        and find_isomorphism(q_split.target, cp2) is not None
        and find_isomorphism(subgroup_as_group(n_nonsplit)[0], cp2) is not None
        and checks["nonsplit_quotient_elementary"]
        and checks["not_isomorphic_to_elementary"]
    )
    return CounterexampleBundle(p, group, n_split, t_split, n_nonsplit, checks)


def counterexample_json_dict(bundle: CounterexampleBundle) -> dict:
    return {
        "p": bundle.p,
        "group": group_to_json_dict(bundle.group),
        "n_split": bundle.n_split.members(),
        "t_split": bundle.t_split.members(),
        "n_nonsplit": bundle.n_nonsplit.members(),
        "checks": dict(bundle.checks),
    }


# ---------------------------------------------------------------------------
# catalog-wide verification

class VerifyConfig(Record):
    max_order: int = 16
    lattice_cap: int = DEFAULT_LATTICE_CAP
    jobs: int = 1
    seed: int = 0


class Report(Record):
    status: str
    config: dict
    summary: dict
    groups: list[dict]

    def json_dict(self, *, include_timings: bool = False) -> dict:
        groups = []
        for g in self.groups:
            g = dict(g)
            if not include_timings:
                g.pop("ms", None)
            groups.append(g)
        return {
            "status": self.status,
            "config": self.config,
            "summary": self.summary,
            "groups": groups,
        }

    def json_bytes(self, *, include_timings: bool = False) -> bytes:
        return canonical_json(self.json_dict(include_timings=include_timings)).encode("utf-8")


def _instance_json_dict(inst: ExtensionInstance) -> dict:
    return {
        "h0": inst.h0.members(),
        "h": inst.h.members(),
        "k": inst.k.members(),
        "iso_h": list(inst.iso_h.map),
        "iso_k": list(inst.iso_k.map),
    }


def _verify_one(payload: tuple[str, Group, int]) -> dict:
    name, group, cap = payload
    start = time.perf_counter()
    out: dict = {"name": name, "order": group.order}
    try:
        cache = IsoCache()
        premises = premise_classes(group, cap=cap, cache=cache)
        missing = {h0.bits for h0 in premises.h0s
                   if not direct_complements(group, h0, cap=cap)}
        violations = []
        if missing:
            # witnesses are built only here, for the instances of the H0s that failed
            violations = [
                {"group": group_to_json_dict(group), "instance": _instance_json_dict(inst)}
                for inst in _instances_of(group, missing, cap=cap, cache=cache)
            ]
        props = property_suite(group, cap=cap, cache=cache)
        out["instances"] = premises.count
        out["violations"] = violations
        out["properties"] = {k: ("pass" if v["pass"] else "fail") for k, v in props.items()}
        failures = {k: v["failures"] for k, v in props.items() if v["failures"]}
        if failures:
            out["property_failures"] = failures
    except OrderBound as exc:
        out["skipped"] = str(exc)
    out["ms"] = (time.perf_counter() - start) * 1000.0
    return out


def get_context(method: str):
    """``multiprocessing.get_context``, imported only when a pool is made."""
    import multiprocessing

    return multiprocessing.get_context(method)


def verify_catalog(entries: list[CatalogEntry], config: VerifyConfig) -> Report:
    """Run the full premise/theorem/property sweep over catalog entries.

    Work is partitioned per group; the merged report is canonically ordered
    and independent of the parallelism degree.
    """
    payloads = [
        (e.name, e.group, config.lattice_cap)
        for e in sorted(entries, key=lambda e: (e.group.order, e.name))
    ]
    jobs = min(config.jobs, len(payloads))
    if jobs > 1:
        with get_context("fork").Pool(jobs) as pool:
            groups = pool.map(_verify_one, payloads, chunksize=1)
    else:
        groups = [_verify_one(p) for p in payloads]
    violations = sum(len(g.get("violations", ())) for g in groups)
    prop_failures = sum(
        1
        for g in groups
        for status in g.get("properties", {}).values()
        if status != "pass"
    )
    skipped = sum(1 for g in groups if "skipped" in g)
    summary = {
        "groups": len(groups),
        "instances": sum(g.get("instances", 0) for g in groups),
        "violations": violations,
        "property_failures": prop_failures,
        "skipped": skipped,
    }
    status = "PASS" if violations == 0 and prop_failures == 0 else "FAIL"
    # jobs is an execution detail, not verification config: the report must
    # come out byte-identical at any parallelism degree
    config_dict = {k: getattr(config, k) for k in config._fields if k != "jobs"}
    return Report(status, config_dict, summary, groups)
