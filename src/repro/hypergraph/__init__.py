"""Hypergraph data structures, Laplacians and construction algorithms.

A hypergraph generalises a graph by letting an edge (a *hyperedge*) connect
any number of nodes.  The package provides:

* :class:`Hypergraph` — incidence-matrix-backed structure with hyperedge
  weights;
* propagation operators / Laplacians following Zhou et al. (2006) and
  Feng et al. (HGNN, AAAI 2019);
* construction algorithms (k-NN hyperedges, k-means cluster hyperedges,
  ε-ball hyperedges, graph-neighbourhood hyperedges) used for both the static
  hypergraph and the dynamic topology of DHGCN;
* the chunked exact k-NN kernel and the incremental k-NN index every
  dynamic layer owns, which keep the dynamic-topology hot path O(n·block)
  in memory and re-query only the rows a change can have invalidated;
* clique / star expansions into pairwise graphs;
* structural statistics used by the dataset-description table.
"""

from repro.hypergraph.construction import (
    epsilon_ball_hyperedges,
    hyperedges_from_graph_neighborhoods,
    kmeans_hyperedges,
    knn_hyperedges,
    union_hypergraphs,
)
from repro.hypergraph.expansion import clique_expansion, star_expansion
from repro.hypergraph.hypergraph import Hypergraph
from repro.hypergraph.kmeans import KMeansResult, assign_to_centroids, kmeans
from repro.hypergraph.knn import (
    DISTANCE_COUNTERS,
    knn_indices,
    knn_indices_bruteforce,
    knn_query_rows,
    pairwise_distances,
)
from repro.hypergraph.laplacian import hypergraph_laplacian, hypergraph_propagation_operator
from repro.hypergraph.metrics import hyperedge_homophily, hypergraph_statistics
from repro.hypergraph.neighbors import IncrementalBackend

__all__ = [
    "Hypergraph",
    "hypergraph_propagation_operator",
    "hypergraph_laplacian",
    "DISTANCE_COUNTERS",
    "knn_indices",
    "knn_indices_bruteforce",
    "knn_query_rows",
    "pairwise_distances",
    "IncrementalBackend",
    "assign_to_centroids",
    "kmeans",
    "KMeansResult",
    "knn_hyperedges",
    "kmeans_hyperedges",
    "epsilon_ball_hyperedges",
    "hyperedges_from_graph_neighborhoods",
    "union_hypergraphs",
    "clique_expansion",
    "star_expansion",
    "hypergraph_statistics",
    "hyperedge_homophily",
]
