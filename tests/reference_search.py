"""The first-fit ideal search done by brute force: the reference that
recovery's class tables (``recovery._class_ideals``) are tested against."""

from iqhecke.quadfield import coprime, ideals_of_norm


def first_ideal(group, accept, coprime_to=(), bound=10_000):
    """The first ideal in label order (norm, index) that is coprime to every
    ideal in coprime_to and whose class satisfies accept."""
    for norm in range(1, bound + 1):
        for i in ideals_of_norm(group.field, norm):
            if all(coprime(i, m) for m in coprime_to) and accept(group.ideal_class(i)):
                return i
    raise AssertionError(f"no ideal of norm <= {bound} fits")
