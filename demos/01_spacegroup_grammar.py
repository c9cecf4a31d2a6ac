"""Tour of the crystallographic grammar layer.

Looks up space groups in the 230-entry knowledge base, shows the
centering + directional tokens of Hermann-Mauguin symbols, and parses
stoichiometric formulas into exact fractions.
"""

from crysgram.grammar import (
    all_space_groups,
    lattice_constraints,
    lookup_space_group,
    parse_formula,
)

print("=== knowledge-base lookup ===")
for number in (1, 14, 225):
    record = lookup_space_group(number)
    print(f"No. {record.number:>3}  {record.short_symbol:<8} "
          f"full: {record.full_symbol:<18} order {record.order:>3}  "
          f"{record.point_group:<6} {record.crystal_system.value:<12} "
          f"{record.symmetry.value}")

print("\n=== the 12 tokens of rock salt's group (No. 225) ===")
print(lookup_space_group(225).token_strings())

print("\n=== Hermann-Mauguin decomposition ===")
for symbol, number in (("F 4/m -3 2/m", 225), ("P1", 1), ("Pmm2", 25),
                       ("P21/c", 14), ("P432", 207)):
    record = lookup_space_group(number)
    print(f"{symbol:<14} -> centering {record.centering}, "
          f"directions {record.directional_symbols}")

print("\n=== lattice constraints per crystal system ===")
for system in ("triclinic", "monoclinic", "hexagonal", "cubic"):
    c = lattice_constraints(system)
    print(f"{system:<12} length classes {c.length_classes} "
          f"fixed angles {c.fixed_angles}")

print("\n=== formula parsing (exact rational accumulation) ===")
for text in ("Fe2O3", "Ca(OH)2", "K(Al(OH)2)3", "Fe0.5Ni0.5"):
    comp = parse_formula(text)
    pairs = ", ".join(f"{s}:{f:.4g}" for s, f in comp.items())
    print(f"{text:<14} -> {pairs}   (reduced: {comp.to_formula()})")

print("\n=== aggregate census over all 230 groups ===")
records = all_space_groups()
centro = sum(r.symmetry.value == "Centrosymmetric" for r in records)
polar = sum(r.polarity.value == "polar" for r in records)
print(f"centrosymmetric: {centro}, polar: {polar}, "
      f"point groups: {len({r.point_group for r in records})}")
