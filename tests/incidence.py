"""A reference cover incidence that the tests build apart from the layout's arrays."""

import numpy as np


def incidence(a) -> np.ndarray:
    """(n_resources, n_options) 0/1 cover matrix of an AssignmentInstance.

    Column o marks the 1-based sub-channels that the catalogue's ``columns``
    list for option o's pattern (``pattern_of``), so it checks the
    constraint matrix against something that matrix is not built from.
    """
    layout = a.layout
    cover = np.zeros((layout.n_resources, len(layout.pattern_of)))
    for o, j in enumerate(layout.pattern_of.tolist()):
        for n in layout.patterns.columns[j]:
            cover[n - 1, o] = 1.0
    return cover
