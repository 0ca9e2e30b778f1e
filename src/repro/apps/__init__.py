"""The paper's benchmark applications, written against the DMLL frontend.

``PROGRAMS`` is the one catalogue of them, read by the CLI, the benchmark
bundles and the tests: name -> a zero-argument function staging it.
"""

from ..graph.optigraph import (pagerank_pull_program, pagerank_push_program,
                              triangle_program)
from .gda import gda_inputs, gda_oracle, gda_program
from .gene import READ, gene_inputs, gene_oracle, gene_program
from .gibbs import gibbs_inputs, gibbs_oracle_sweep, gibbs_sample, gibbs_sweep_program
from .kmeans import (kmeans_grouped_program, kmeans_inputs, kmeans_oracle,
                     kmeans_shared_program)
from .knn import knn_inputs, knn_oracle, knn_program
from .logreg import logreg_inputs, logreg_oracle, logreg_program
from .naive_bayes import nb_inputs, nb_oracle, nb_program
from .tpch import LINEITEM, q1_inputs, q1_oracle, q1_program

PROGRAMS = {
    "kmeans": kmeans_shared_program,
    "kmeans-grouped": kmeans_grouped_program,
    "logreg": logreg_program,
    "gda": gda_program,
    "q1": q1_program,
    "gene": gene_program,
    "knn": knn_program,
    "naive-bayes": nb_program,
    "gibbs": gibbs_sweep_program,
    "pagerank": pagerank_pull_program,
    "pagerank-push": pagerank_push_program,
    "triangle": triangle_program,
}

__all__ = [
    "PROGRAMS",
    "gda_inputs", "gda_oracle", "gda_program",
    "READ", "gene_inputs", "gene_oracle", "gene_program",
    "gibbs_inputs", "gibbs_oracle_sweep", "gibbs_sample",
    "gibbs_sweep_program",
    "kmeans_grouped_program", "kmeans_inputs", "kmeans_oracle",
    "kmeans_shared_program",
    "knn_inputs", "knn_oracle", "knn_program",
    "logreg_inputs", "logreg_oracle", "logreg_program",
    "nb_inputs", "nb_oracle", "nb_program",
    "LINEITEM", "q1_inputs", "q1_oracle", "q1_program",
]
