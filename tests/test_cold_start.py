"""The gate path imports neither scipy nor networkx.

``import repro``, ``repro delay`` in oracle mode, table-model queries
and serve request parsing must work with only numpy importable: scipy
serves only the sparse backend (``SPARSE_NODE_CUTOVER`` unknowns and
up, or any circuit under ``REPRO_SPARSE=1``), and networkx is not a
dependency at all.  Each check runs in a fresh interpreter and asserts
exit status and module sets only, never wall time.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np

import repro
from repro.inertial import TableGlitchModel
from repro.models import TableDualInputModel, TableSingleInputModel
from repro.waveform import FALL

SRC = str(Path(repro.__file__).resolve().parent.parent)

#: Prepended to a probe: every later ``import scipy...`` or
#: ``import networkx...`` raises ImportError.
BLOCK = ("import sys\n"
         "for _name in ('scipy', 'networkx'):\n"
         "    sys.modules[_name] = None\n")

DELAY_ARGS = ["delay", "--gate", "nand3", "--load", "100f",
              "--edge", "a:fall:500ps", "--edge", "b:fall:700ps:50ps"]


def run_probe(code, tmp_path, **env):
    """Run ``code`` in a fresh interpreter; return its stdout.

    Every inherited ``REPRO_*`` knob is dropped (an injected fault or a
    forced backend from the calling environment must not leak in), and
    the characterization cache is a fresh directory.
    """
    environ = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    environ["PYTHONPATH"] = SRC
    environ["REPRO_CACHE_DIR"] = str(tmp_path / "cache")
    environ.update(env)
    proc = subprocess.run([sys.executable, "-c", code], env=environ,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def loaded(prefix):
    """Probe snippet printing whether any ``prefix`` module is loaded."""
    return (f"print(any(m == {prefix!r} or m.startswith({prefix + '.'!r})"
            f" for m in sys.modules))\n")


class TestWithoutScipy:
    def test_import_repro(self, tmp_path):
        out = run_probe(BLOCK + "import repro\nprint(repro.__version__)\n",
                        tmp_path)
        assert out.strip() == repro.__version__

    def test_delay_command_oracle_mode(self, tmp_path):
        code = BLOCK + (
            "import runpy\n"
            f"sys.argv = ['repro', *{DELAY_ARGS!r}]\n"
            "runpy.run_module('repro', run_name='__main__', alter_sys=True)\n"
        )
        out = run_probe(code, tmp_path)
        assert "delay:" in out and "folded b" in out

    def test_table_model_queries(self, tmp_path):
        u = np.geomspace(0.01, 10.0, 7)
        single = TableSingleInputModel(
            "a", FALL, u, 0.2 + 1.5 * u ** 0.8, 0.4 + 2.0 * u ** 0.8,
            k_drive=1e-3, vdd=5.0, char_load=1e-13)
        axes = (np.array([0.5, 1.0, 2.0]), np.array([0.25, 1.0, 4.0]),
                np.array([-2.0, 0.0, 0.5, 1.5]))
        table = np.linspace(0.4, 1.1, 36).reshape(3, 3, 4)
        dual = TableDualInputModel("a", "b", FALL, axes, table, 0.9 * table)
        glitch = TableGlitchModel("b", "a", axes, table / 2, vdd=5.0,
                                  output_direction=FALL)
        payloads = json.dumps([single.to_payload(), dual.to_payload(),
                               glitch.to_payload()])
        code = BLOCK + (
            "import json\n"
            "from repro.inertial import TableGlitchModel\n"
            "from repro.models import TableDualInputModel, TableSingleInputModel\n"
            f"s, d, g = json.loads({payloads!r})\n"
            "s = TableSingleInputModel.from_payload(s)\n"
            "d = TableDualInputModel.from_payload(d)\n"
            "g = TableGlitchModel.from_payload(g)\n"
            "print(json.dumps([s.delay(3e-10), s.ttime(3e-10, 2e-13),\n"
            "                  d.delay_ratio(2e-10, 3e-10, 1e-10, delta1=2e-10),\n"
            "                  d.ttime_ratio(2e-10, 3e-10, 9e-10, tau1=3e-10,\n"
            "                                delta1=2e-10),\n"
            "                  g.extremum(2e-10, 3e-10, 1e-10, delta1=2e-10)]))\n"
        )
        answers = json.loads(run_probe(code, tmp_path))
        assert answers == [
            single.delay(3e-10), single.ttime(3e-10, 2e-13),
            dual.delay_ratio(2e-10, 3e-10, 1e-10, delta1=2e-10),
            dual.ttime_ratio(2e-10, 3e-10, 9e-10, tau1=3e-10, delta1=2e-10),
            glitch.extremum(2e-10, 3e-10, 1e-10, delta1=2e-10),
        ]

    def test_serve_protocol_parses_a_request(self, tmp_path):
        code = BLOCK + (
            "from repro.serve.protocol import parse_delay_request\n"
            "query = parse_delay_request({'gate': 'nand3', 'load': '100f',\n"
            "    'edges': ['a:fall:500ps', 'b:fall:700ps:50ps']})\n"
            "print(len(query.edges))\n"
        )
        assert run_probe(code, tmp_path).strip() == "2"


class TestScipyLoadsOnFirstUse:
    def test_scipy_sparse_on_first_sparse_plan(self, tmp_path):
        code = (
            "import sys\n"
            "import repro.spice\n" + loaded("scipy.sparse") +
            "from repro.spice import solve_dc\n"
            "from repro.spice.builders import hierarchical_decoder\n"
            "from repro.spice.sparse import SPARSE_NODE_CUTOVER\n"
            "circuit = hierarchical_decoder(5, address=3)\n"
            "assert circuit.compile().n_unknown >= SPARSE_NODE_CUTOVER\n"
            + loaded("scipy.sparse") +
            "solve_dc(circuit)\n" + loaded("scipy.sparse")
        )
        assert run_probe(code, tmp_path).split() == ["False", "False", "True"]

    def test_dense_solves_load_no_scipy(self, tmp_path):
        code = (
            "import sys\n"
            "from repro.spice import solve_dc\n"
            "from repro.spice.builders import inverter_chain\n"
            "solve_dc(inverter_chain(3))\n" + loaded("scipy")
        )
        assert run_probe(code, tmp_path).strip() == "False"
