"""
Two coding structures for one group of frames
=============================================

A still group spends one high-quality backward anchor and codes everything
else flat against it.  A moving group builds a binary pyramid of midpoint
anchors instead.  Both are emitted as an explicit encode-order table that a
reference-buffer simulation can check.
"""

from gfstill import plan_group, validate_plan

for verdict in ("still", "non-still"):
    plan = plan_group(16, verdict)
    print(f"\n16-frame group, verdict {verdict!r} -> {plan.structure}")
    print(f"{'encode':>6} {'display':>8} {'role':<13} {'layer':>5}  references")
    for e in plan.entries:
        refs = ", ".join(f"{slot}->{d}" for slot, d in e.refs.items())
        shown = "  (re-shown)" if e.show_existing else ""
        print(
            f"{e.encode_order:>6} {e.display_index:>8} {e.role.value:<13} "
            f"{e.layer:>5}  {refs}{shown}"
        )
    violations = validate_plan(plan)
    print(f"validation: {violations or 'clean'}")

# The pyramid's depth-first encode order is what keeps the reference
# buffer small: finished sub-spans retire their short-lived anchors before
# the next sub-span begins.  Replay the plan and count live references.
plan = plan_group(16, "non-still")
entries = sorted(plan.entries, key=lambda e: e.encode_order)
coded = {0}
worst = 0
for i, e in enumerate(entries):
    needed = set()
    for later in entries[i:]:
        needed.update(later.refs.values())
        if later.show_existing:
            needed.add(later.display_index)
    live = len(needed & coded)
    worst = max(worst, live)
    if not e.show_existing:
        coded.add(e.display_index)
print(f"\npeak live references while coding the pyramid: {worst} (budget 8)")
