"""Frozen answers, recorded from exhaustive oracle runs on unrelabelled
inputs.  Values are (theta, number of classes, number of labelled
solutions); relabelling the vertices or reordering the edges of an input
maps labelled solutions one to one, so these hold for every seed.

``DIRECT[("F4", "sdu")]`` is ``(None, 0, 0)``: the search capped at 15
elements exhausts without a solution.
"""

COMPLETE = {
    (4, 'sa'): (4, 1, 4),
    (4, 'sd'): (4, 2, 8),
    (4, 'sdu'): (5, 1, 1),
    (5, 'sa'): (5, 1, 5),
    (5, 'sd'): (5, 2, 10),
    (6, 'sa'): (6, 1, 6),
    (6, 'sd'): (6, 2, 12),
    (6, 'sdu'): (7, 2, 31),
    (7, 'sa'): (7, 2, 37),
    (7, 'sd'): (7, 3, 44),
}
LINEGRAPH = {
    'star_graph(1)': {'sd': (1, 1, 1), 'sa': (1, 1, 1)},
    'star_graph(3)': {'sd': (3, 2, 4), 'sa': (3, 1, 1)},
    'star_graph(4)': {'sd': (4, 2, 8), 'sa': (4, 1, 4)},
    'star_graph(6)': {'sd': (6, 2, 12), 'sa': (6, 1, 6)},
    'path_graph(3)': {'sd': (2, 1, 2), 'sa': (3, 1, 1)},
    'path_graph(4)': {'sd': (2, 1, 1), 'sa': (4, 1, 1)},
    'path_graph(5)': {'sd': (3, 1, 1), 'sa': (5, 1, 1)},
    'path_graph(6)': {'sd': (4, 1, 1), 'sa': (6, 1, 1)},
    'cycle_graph(4)': {'sd': (4, 1, 1), 'sa': (4, 1, 1)},
    'cycle_graph(5)': {'sd': (5, 1, 1), 'sa': (5, 1, 1)},
    'cycle_graph(6)': {'sd': (6, 1, 1), 'sa': (6, 1, 1)},
    'cycle_graph(7)': {'sd': (7, 1, 1), 'sa': (7, 1, 1)},
    'complete_graph(3)': {'sd': (3, 2, 4), 'sa': (3, 1, 1)},
    'complete_graph(4)': {'sd': (4, 2, 2), 'sa': (4, 2, 2)},
    'plumed_triangle(1)': {'sd': (3, 2, 2), 'sa': (4, 2, 2)},
    'plumed_triangle(2)': {'sd': (4, 2, 4), 'sa': (5, 2, 3)},
    'plumed_triangle(3)': {'sd': (5, 2, 5), 'sa': (6, 2, 3)},
    'two_plumed_triangle(1,1)': {'sd': (3, 1, 1), 'sa': (5, 2, 2)},
    'two_plumed_triangle(2,1)': {'sd': (4, 1, 2), 'sa': (6, 3, 3)},
    'two_plumed_triangle(2,2)': {'sd': (5, 1, 4), 'sa': (7, 4, 5)},
    'book(2)': {'sd': (4, 2, 2), 'sa': (4, 2, 2)},
    'book(3)': {'sd': (5, 2, 2), 'sa': (5, 2, 2)},
    'plumed_book(2,1)': {'sd': (4, 1, 1), 'sa': (5, 2, 2)},
    'plumed_book(2,1,1)': {'sd': (4, 1, 1), 'sa': (6, 2, 2)},
    'friendship3()': {'sd': (7, 2, 3), 'sa': (7, 1, 1)},
    'bridged_triangles()': {'sd': (6, 3, 4), 'sa': (6, 1, 1)},
    'dumbbell()': {'sd': (4, 1, 4), 'sa': (6, 3, 4)},
    'wing_path()': {'sd': (4, 2, 2), 'sa': (5, 1, 1)},
    'trimmed_fig5()': {'sd': (4, 1, 1), 'sa': (5, 1, 1)},
    'spider()': {'sd': (4, 1, 3), 'sa': (6, 3, 5)},
    'asym_wing()': {'sd': (5, 2, 4), 'sa': (6, 2, 2)},
    'cornered_triangle()': {'sd': (3, 1, 1), 'sa': (6, 1, 1)},
}
DIRECT = {
    ('F2', 'sa'): (6, 3, 4),
    ('F2', 'sdu'): (6, 1, 1),
    ('F3', 'sa'): (9, 4, 8),
    ('K2,2,2', 'sd'): (4, 1, 2),
    ('K1,1,3', 'sd'): (5, 1, 3),
    ('star_graph(5)', 'sd'): (5, 1, 1),
    ('F4', 'sa'): (12, 5, 16),
    ('F4', 'sdu'): (None, 0, 0),
    ('K2,2,2,2', 'sd'): (8, 2, 72),
    ('K3,3,3', 'sd'): (9, 1, 12),
    ('K1,1,6', 'sd'): (11, 1, 6),
    ('star_graph(8)', 'sd'): (8, 1, 1),
}

# Labelled projective planes among the partitions of K_n into n cliques.
CENSUS_PLANES = {5: 0, 6: 0, 7: 30, 8: 0, 9: 0}
