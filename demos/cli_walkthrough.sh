#!/bin/sh
# End-to-end tour of the exchgraph command line.
# Usage: sh demos/cli_walkthrough.sh [workdir]
set -e

work="${1:-/tmp/exchgraph_demo}"
mkdir -p "$work"

cat > "$work/config.json" <<'EOF'
{
  "ensemble": {
    "n": 200,
    "mixing": {"variant": "power_law", "alpha": 1.0, "beta": 3.0},
    "master_seed": 42,
    "replicas": 400
  },
  "output_dir": "OUT",
  "hub": {"ks_max": 0.15},
  "gf2": {"n": 32, "replicas": 2000}
}
EOF
# point the output at the workdir
sed -i "s#\"OUT\"#\"$work/out\"#" "$work/config.json"

echo "== sample: write edge lists =="
exchgraph sample --config "$work/config.json"
head -5 "$work/out/replica_0000.edges"

echo
echo "== degrees: exact pmf vs limit law =="
exchgraph degrees --config "$work/config.json"

echo
echo "== motifs, hub, gf2: analytic reports =="
exchgraph motifs --config "$work/config.json"
exchgraph hub --config "$work/config.json"
exchgraph gf2 --config "$work/config.json"

echo
echo "== report: asymptotic regimes for this mixing family =="
exchgraph report --config "$work/config.json"

echo
echo "== mc: seeded validation suites (exit 2 on a statistical failure) =="
exchgraph mc --config "$work/config.json"
echo "exit $?"

echo
echo "== mc with one bias shared by all rows: the laws averaged over it =="
cat > "$work/shared.json" <<'EOF'
{
  "ensemble": {
    "n": 60,
    "mixing": {"variant": "power_law", "alpha": 2.0, "beta": 2.5},
    "variant": "completely_exchangeable",
    "master_seed": 3,
    "replicas": 2000
  },
  "tasks": ["degrees", "motifs"],
  "output_dir": "OUT"
}
EOF
sed -i "s#\"OUT\"#\"$work/shared\"#" "$work/shared.json"
exchgraph mc --config "$work/shared.json"

echo
echo "== motifs and mc with 100 of the 200 nodes sending: the rectangular laws =="
cat > "$work/rect.json" <<'EOF'
{
  "ensemble": {
    "n": 200,
    "mixing": {"variant": "power_law", "alpha": 1.0, "beta": 3.0},
    "master_seed": 42,
    "replicas": 400
  },
  "tasks": ["motifs"],
  "output_dir": "OUT",
  "motifs": {"rows": 100}
}
EOF
sed -i "s#\"OUT\"#\"$work/rect\"#" "$work/rect.json"
exchgraph motifs --config "$work/rect.json"
exchgraph mc --config "$work/rect.json"

echo
echo "== degrees, hub, gf2 on a hierarchical mixing law: its own limit seed =="
cat > "$work/hierarchical.json" <<'EOF'
{
  "ensemble": {
    "n": 2000,
    "mixing": {"variant": "hierarchical", "A": 1.0, "beta": 2.5, "gamma_exp": 4.0},
    "master_seed": 42,
    "replicas": 200
  },
  "output_dir": "OUT",
  "gf2": {"n": 64}
}
EOF
sed -i "s#\"OUT\"#\"$work/hierarchical\"#" "$work/hierarchical.json"
exchgraph degrees --config "$work/hierarchical.json"
exchgraph hub --config "$work/hierarchical.json"
exchgraph gf2 --config "$work/hierarchical.json"

echo
echo "== gf2 with one cutoff shared by all rows: the mean averaged over it =="
# hub refuses shared-bias variants, so gf2 takes a config of its own
cat > "$work/hierarchical_shared.json" <<'EOF'
{
  "ensemble": {
    "n": 2000,
    "mixing": {"variant": "hierarchical", "A": 1.0, "beta": 2.5, "gamma_exp": 4.0},
    "variant": "hierarchical",
    "master_seed": 42,
    "replicas": 200
  },
  "output_dir": "OUT",
  "gf2": {"n": 64}
}
EOF
sed -i "s#\"OUT\"#\"$work/hierarchical_shared\"#" "$work/hierarchical_shared.json"
exchgraph gf2 --config "$work/hierarchical_shared.json"

echo
echo "== degrees, hub, gf2 on a modulated power law: its seed, cut at n =="
cat > "$work/modulated.json" <<'EOF'
{
  "ensemble": {
    "n": 2000,
    "mixing": {"variant": "modulated_power_law", "alpha": 1.0, "beta": 2.5,
               "g_table": [[0, 1], [10, 2], [100, 0.5], [1000, 1.5]]},
    "master_seed": 42,
    "replicas": 200
  },
  "output_dir": "OUT",
  "gf2": {"n": 64}
}
EOF
sed -i "s#\"OUT\"#\"$work/modulated\"#" "$work/modulated.json"
exchgraph degrees --config "$work/modulated.json"
exchgraph hub --config "$work/modulated.json"
exchgraph gf2 --config "$work/modulated.json"

echo
echo "== sample, degrees, motifs, gf2 on a steep modulated power law: its sums in logs =="
# alpha**(1 - beta) is 1e357 here, past the float range: every law of the
# family is a sum over the pieces of g taken in logs
cat > "$work/steep.json" <<'EOF'
{
  "ensemble": {
    "n": 100,
    "mixing": {"variant": "modulated_power_law", "alpha": 0.001, "beta": 120.0,
               "g_table": [[0, 1], [10, 2]]},
    "master_seed": 42,
    "replicas": 2
  },
  "output_dir": "OUT"
}
EOF
sed -i "s#\"OUT\"#\"$work/steep\"#" "$work/steep.json"
exchgraph sample --config "$work/steep.json"
exchgraph degrees --config "$work/steep.json"
exchgraph motifs --config "$work/steep.json"
exchgraph gf2 --config "$work/steep.json"

echo
echo "artifacts in $work/out:"
ls "$work/out" | grep -cv '^replica_' | xargs -I{} echo "  {} reports and tables, plus:"
ls "$work/out" | grep -c '^replica_' | xargs -I{} echo "  {} edge-list files"
ls "$work/out" | grep -v '^replica_' | sed 's/^/  /'
