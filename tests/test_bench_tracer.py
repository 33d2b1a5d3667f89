"""The span recorder's contract with the package, checked without running
the benchmark: the names it wraps exist, the workloads expect only spans it
records, and its work counts read real results correctly."""

import importlib
import os
import sys
from pathlib import Path

import pytest

from exchgraph.ensemble import EnsembleConfig, sample_graph, write_edge_list
from exchgraph.mixing import PowerLawMixing

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "bench"))
tracer = importlib.import_module("tracer")
workloads = importlib.import_module("workloads")


@pytest.mark.parametrize("target", sorted(tracer.SPANS))
def test_every_span_target_resolves(target):
    module_name, *classes, func_name = target.split(".")
    owner = importlib.import_module("exchgraph." + module_name)
    for class_name in classes:
        owner = getattr(owner, class_name)
    assert callable(getattr(owner, func_name))


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_expected_spans_are_recorded_spans(name):
    assert set(workloads.WORKLOADS[name].expected_spans) <= set(tracer.SPANS)


def test_graph_and_edge_file_counts_read_a_real_sample(tmp_path):
    config = EnsembleConfig(n=300, mixing=PowerLawMixing(alpha=1.0, beta=1.5),
                            master_seed=3)
    sample = sample_graph(config, 0)
    edges = sample.matrix.count_ones()
    assert edges > 0
    assert tracer._graph_counts((config, 0), {}, sample) == {
        "edges": edges, "cells": 300 * 300}
    path = tmp_path / "replica.edges"
    write_edge_list(sample, config, path)
    assert tracer._edge_file_counts((sample, config, path), {}, None) == {
        "edges": edges, "bytes": os.path.getsize(path)}
