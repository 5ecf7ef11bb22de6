"""Property-based laws of delta coalescing.

The subscription server's bounded delivery queues fold overflowing
entries with ``coalesce`` — chains of three and more merges, in whatever
grouping the overflow happens to hit.  Correctness of that folding rests
on three laws over *consecutive* contract-clean deltas:

* **associativity** — any grouping of a coalesce chain yields the same
  delta, so the queue may merge neighbours in any order;
* **contract-cleanliness** — the merged delta is again a valid two-delta
  (“disjoint sides, applicable to the pre-state”), so it can itself be
  merged further or applied directly;
* **replay equivalence** — applying the merged delta to the chain's
  pre-state lands exactly on the chain's final state, which is why
  overflow coalescing is lossless for final state.

Consecutive deltas are generated from a state trajectory: drawing the
*states* (not the deltas) makes every generated chain consecutive and
contract-clean by construction, with interleaved insert/delete churn —
the same tuples routinely enter, leave and re-enter across the chain.
"""

from hypothesis import given, settings, strategies as st

from repro.exec.delta import EMPTY_DELTA, Delta

values = st.one_of(
    st.none(),
    st.integers(min_value=-8, max_value=8),
    st.sampled_from(["a", "b", "c"]),
)

#: A small tuple universe so successive states overlap heavily: churn,
#: cancellation (insert-then-delete) and re-insertion all get exercised.
states = st.frozensets(st.tuples(values, values), max_size=6)

#: A trajectory S0 → S1 → … → Sn with n ≥ 3 transitions, i.e. chains of
#: three or more coalesces once folded.
trajectories = st.tuples(
    states, st.lists(states, min_size=3, max_size=6)
)


def deltas_of(initial, targets):
    """The consecutive delta chain walking ``initial`` through ``targets``."""
    chain = []
    state = initial
    for target in targets:
        chain.append(Delta(target - state, state - target))
        state = target
    return chain


def fold_left(chain):
    merged = chain[0]
    for later in chain[1:]:
        merged = merged.coalesce(later)
    return merged


def fold_right(chain):
    merged = chain[-1]
    for earlier in reversed(chain[:-1]):
        merged = earlier.coalesce(merged)
    return merged


def random_groupings(chain):
    """A few distinct association orders beyond the two linear folds:
    merge a middle pair first, then fold the rest."""
    for pivot in range(1, len(chain) - 1):
        grouped = (
            chain[:pivot]
            + [chain[pivot].coalesce(chain[pivot + 1])]
            + chain[pivot + 2 :]
        )
        yield fold_left(grouped)


#: Anything a device row might hold, including None and mixed types.
wide_values = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(min_value=-(2**40), max_value=2**40),
    st.floats(allow_nan=False),
    st.text(max_size=8),
)


def rows_of(width: int):
    return st.frozensets(st.tuples(*[wide_values] * width), max_size=12)


class TestCoalesceLaws:
    @given(trajectories)
    @settings(max_examples=200)
    def test_associative_row(self, trajectory):
        initial, targets = trajectory
        chain = deltas_of(initial, targets)
        reference = fold_left(chain)
        assert fold_right(chain) == reference
        for merged in random_groupings(chain):
            assert merged == reference

    @given(trajectories)
    @settings(max_examples=200)
    def test_contract_clean(self, trajectory):
        initial, targets = trajectory
        merged = fold_left(deltas_of(initial, targets))
        inserted, deleted = merged.inserted, merged.deleted
        assert not inserted & deleted
        assert not inserted & initial  # inserts are new to the pre-state
        assert deleted <= initial  # deletes existed in the pre-state

    @given(trajectories)
    @settings(max_examples=200)
    def test_replay_equivalence(self, trajectory):
        initial, targets = trajectory
        final = targets[-1]
        merged = fold_left(deltas_of(initial, targets))
        assert (initial - merged.deleted) | merged.inserted == final
        # The merge is exactly the net start→end difference: nothing
        # transient survives (insert-then-delete and delete-then-
        # re-insert pairs cancel).
        assert merged.inserted == final - initial
        assert merged.deleted == initial - final

    @given(st.data())
    @settings(max_examples=60, deadline=None)
    def test_coalesce_equals_sequential_application(self, data):
        """One coalesce over arbitrary-valued rows of any arity: applying
        the merged delta equals applying the two in sequence."""
        width = data.draw(st.integers(min_value=0, max_value=5), label="width")
        state = data.draw(rows_of(width), label="state")

        def deletions_from(current, label):
            if not current:
                return frozenset()
            return frozenset(
                data.draw(
                    st.sets(st.sampled_from(sorted(current, key=repr))),
                    label=label,
                )
            )

        # Contract-respecting deltas against the evolving state: inserts
        # are absent from it, deletes are members of it.
        first = Delta(
            data.draw(rows_of(width), label="first_ins") - state,
            deletions_from(state, "first_del"),
        )
        mid = (state | first.inserted) - first.deleted
        later = Delta(
            data.draw(rows_of(width), label="later_ins") - mid,
            deletions_from(mid, "later_del"),
        )
        sequential = (mid | later.inserted) - later.deleted
        merged = first.coalesce(later)
        assert (state | merged.inserted) - merged.deleted == sequential
        # The merged delta is disjoint (a well-formed two-delta).
        assert not merged.inserted & merged.deleted

    def test_identity_fast_paths(self):
        """Empty sides short-circuit without changing semantics, and an
        empty result canonicalizes to the EMPTY_DELTA singleton."""
        busy = Delta(frozenset({("a", 1)}), frozenset({("b", 2)}))
        assert busy.coalesce(EMPTY_DELTA) is busy
        assert EMPTY_DELTA.coalesce(busy) == busy
        assert EMPTY_DELTA.coalesce(EMPTY_DELTA) is EMPTY_DELTA
        undo = Delta(busy.deleted, busy.inserted)
        assert busy.coalesce(undo) is EMPTY_DELTA
