"""Searches done by brute force, the references the library is tested
against: the first-fit ideal search of recovery's class tables
(``recovery._class_ideals``), and the subgroup generated by a set of
classes, which ``eigensystem.support_subgroup`` reads from character
kernels."""

from iqhecke.quadfield import coprime, ideals_of_norm


def first_ideal(group, accept, coprime_to=(), bound=10_000):
    """The first ideal in label order (norm, index) that is coprime to every
    ideal in coprime_to and whose class satisfies accept."""
    for norm in range(1, bound + 1):
        for i in ideals_of_norm(group.field, norm):
            if all(coprime(i, m) for m in coprime_to) and accept(group.ideal_class(i)):
                return i
    raise AssertionError(f"no ideal of norm <= {bound} fits")


def subgroup_closure(group, gens):
    """The subgroup of group generated by gens, by breadth-first closure
    under multiplication from the identity."""
    out = {group.identity()}
    frontier = [group.identity()]
    while frontier:
        nxt = []
        for x in frontier:
            for g in gens:
                y = group.mul(x, g)
                if y not in out:
                    out.add(y)
                    nxt.append(y)
        frontier = nxt
    return out
