"""The catalog: each family spec the tests, `verify-all` and CI run, with
the outcomes the classification theorem predicts (Kac, Adv. Math. 26,
1977; Djokovic-Hochschild): with g0 reductive, g has semisimple
representations exactly when it is an even reductive algebra times copies
of osp(1|2n), which is also exactly when the cone of odd elements with
semisimple square is zero.

An entry records the factor names `classify --json` lists (WITNESS when
the cone is not zero), the ghost verdict, the dimension of the invariants
of either coinvariant quotient (1 when tr(ad x | g1) = 0 for every even
x), and, where dim g1 <= 4, whether the induced module is semisimple; None
is not recorded.  An entry with `budgets`, the seconds each CLI verb may
take, is of cost class `ci` (run by `tests/ci_catalog.py`), else `tier1`.
A new family is its builder plus one line here, its outcomes taken from
the theory, never from the program's output.
"""

from __future__ import annotations

from dataclasses import dataclass

from .enveloping import NOT_SEMISIMPLE, SEMISIMPLE

TIER1 = "tier1"
CI = "ci"
WITNESS = "witness"
PURELY_EVEN = ("purely even",)

# the groups an entry may join: the cone workload's algebras (the cone test's
# dense oracles), those also rebuilt over a denominator D > 1, and the
# algebras of verify-all's criteria 1 and 5
CONE = "cone"
RESCALED = "rescaled"
CONSTRUCTION = "construction"
CROSS_VALIDATION = "cross-validation"


@dataclass(frozen=True)
class Entry:
    spec: str
    classify: tuple[str, ...] | str | None
    ghost: str | None = None
    invariant_dim: int | None = None
    induced: bool | None = None
    budgets: tuple[tuple[str, int], ...] = ()
    groups: tuple[str, ...] = ()

    @property
    def cost(self) -> str:
        return CI if self.budgets else TIER1


def _osp(*ns: int) -> tuple[str, ...]:
    return tuple(f"Osp({n})" for n in ns)


_SS, _NS = SEMISIMPLE, NOT_SEMISIMPLE

CATALOG: tuple[Entry, ...] = (
    Entry("osp1:1", _osp(1), _SS, 1, True,
          groups=(CONE, RESCALED, CONSTRUCTION, CROSS_VALIDATION)),
    Entry("osp1:2", _osp(2), _SS, 1, True,
          groups=(CONE, RESCALED, CONSTRUCTION, CROSS_VALIDATION)),
    Entry("osp1:3", _osp(3), _SS, 1, groups=(CONE, CONSTRUCTION)),
    Entry("osp1:4", _osp(4), _SS, 1),
    Entry("osp1:5", _osp(5), _SS, 1),
    Entry("product:osp1:1,osp1:1", _osp(1, 1), _SS, 1, True, groups=(CONE,)),
    Entry("product:osp1:1,osp1:2", _osp(1, 2), _SS, 1, groups=(CONSTRUCTION,)),
    Entry("product:osp1:1,osp1:1,osp1:1", _osp(1, 1, 1), _SS, 1),
    Entry("product:gl:1:0,osp1:1,osp1:2", ("center",) + _osp(1, 2), _SS, 1),
    Entry("gl:1:0", PURELY_EVEN, _SS, 1, True, groups=(CROSS_VALIDATION,)),
    Entry("gl:2:0", PURELY_EVEN, _SS, 1, True),
    Entry("gl:0:2", PURELY_EVEN, _SS, 1, True),
    Entry("gl:1:1", WITNESS, _NS, 1, False,
          groups=(CONE, RESCALED, CONSTRUCTION, CROSS_VALIDATION)),
    Entry("gl:2:1", WITNESS, _NS, 1, False, groups=(CONSTRUCTION, CROSS_VALIDATION)),
    Entry("gl:2:2", WITNESS, _NS, 1, groups=(CONE,)),
    Entry("gl:3:3", WITNESS, _NS, 1),
    Entry("sl:1:1", WITNESS, _NS, 1, False),
    Entry("sl:2:1", WITNESS, _NS, 1, False,
          groups=(CONE, RESCALED, CONSTRUCTION, CROSS_VALIDATION)),
    Entry("sl:3:1", WITNESS, _NS, 1),
    Entry("sl:2:2", WITNESS, _NS, 1),
    Entry("sl:3:2", WITNESS, _NS, 1),
    Entry("toy_odd_nilpotent", WITNESS, _NS, 1, False),
    Entry("toy_odd_semisimple", WITNESS, _NS, 1, False,
          groups=(CONE, RESCALED, CROSS_VALIDATION)),
    Entry("product:osp1:1,gl:1:1", WITNESS, _NS, 1, False),
    Entry("product:osp1:2,gl:1:1", WITNESS, _NS, 1),
    # the CI runs, each verb within about 10x its fresh-process time, at least 10 s
    Entry("osp1:7", _osp(7), budgets=(("classify", 10),)),
    Entry("osp1:8", _osp(8), _SS, 1, budgets=(("classify", 10), ("ghost", 10))),
    Entry("osp1:9", None, _SS, 1, budgets=(("ghost", 15),)),
    Entry("osp1:10", _osp(10), budgets=(("classify", 10),)),
    Entry("osp1:12", _osp(12), budgets=(("classify", 10),)),
    Entry("osp1:24", _osp(24), budgets=(("classify", 35),)),
    Entry("osp1:32", _osp(32), budgets=(("classify", 90),)),
    Entry("product:osp1:4,osp1:4", _osp(4, 4), budgets=(("classify", 10),)),
)

_BY_SPEC = {e.spec: e for e in CATALOG}


def entry(spec: str) -> Entry:
    """The catalog entry of `spec` (KeyError if there is none)."""
    return _BY_SPEC[spec]


def entries(group: str | None = None, cost: str | None = None) -> tuple[Entry, ...]:
    """The entries in `group` and of cost class `cost` (all when None), in
    catalog order."""
    return tuple(e for e in CATALOG
                 if (group is None or group in e.groups) and (cost is None or e.cost == cost))


def specs(group: str | None = None, cost: str | None = None) -> tuple[str, ...]:
    """The specs of `entries(group, cost)`."""
    return tuple(e.spec for e in entries(group, cost))
