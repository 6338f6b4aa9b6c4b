"""groupkit: finite groups as Cayley tables, subgroup lattices, direct-product
decomposition, and exhaustive direct-extension verification."""

from .core import (
    CentralQuotient,
    Cyclic,
    Dicyclic,
    Dihedral,
    Group,
    Product,
    Recipe,
    Semidirect,
    Symmetric,
    construct,
    element_order,
    exponent,
    parse_recipe,
    recipe_dsl,
    validate_table,
)
from .subgroups import (
    QuotientMap,
    Subgroup,
    all_subgroups,
    center,
    commutator,
    derived_subgroup,
    generate_subgroup,
    normal_subgroups,
    quotient,
    subgroup_as_group,
)
from .iso import Fingerprint, Iso, automorphisms, find_isomorphism, fingerprint
from .decomposition import (
    Splitting,
    all_direct_splittings,
    cyclic_max_complement,
    combine_coprime_factors,
    direct_complements,
    is_coprime,
    is_directly_decomposable,
    is_internal_direct,
    project_onto_factor,
    remak_decomposition,
)
from .harness import (
    CounterexampleBundle,
    ExtensionInstance,
    Report,
    TheoremResult,
    VerifyConfig,
    build_split_counterexample,
    check_direct_extension,
    extension_instances,
    property_suite,
    verify_catalog,
)
from .catalog import (
    CatalogEntry,
    abelian_p_group_catalog,
    builtin_catalog,
    export_group,
    import_group,
)

__version__ = "0.1.0"
