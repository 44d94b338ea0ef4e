"""The benchmark's tracer (``bench/tracing.py``) wraps twisteta functions by
name and reads fields of their results; a rename in ``src/`` that it does
not follow breaks ``bench/run.py --trace 1``.  This runs one small command
per traced layer under the tracer, in a fresh interpreter so that
``install`` rebinds names in unwrapped modules, and checks that every span
was recorded."""

import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

SCRIPT = """
import json, sys
from pathlib import Path

sys.path.insert(0, sys.argv[1])
import twisteta.cli as cli
import tracing

tracer = tracing.Tracer()
tracing.install(tracer)
runs = {
    "specflow": "geometry = sphere3\\nengine = hurwitz\\nsweep = 0.5,2.0\\n",
    "psc": "geometry = sphere3\\nsweep = 0.0,0.4\\n",
    "lw": "geometry = torus3\\nflux_cosine = 0:1.0\\ncutoff = 2\\n",
    "eta": "geometry = circle\\nbundle = circle_holonomy\\nholonomy = 0.25\\n"
           "engine = heat\\ncutoff = 40\\n",
}
for command, text in runs.items():
    Path(f"{command}.txt").write_text(text)
    code = cli.main([command, "--config", f"{command}.txt", "--out", f"{command}.jsonl"])
    assert code == 0, (command, code)
spans = tracer.take()
tracing.layer_metrics(spans, 2)
print(json.dumps({"recorded": sorted({s[0] for s in spans}),
                  "traced": sorted({t[2] for t in tracing._TRACED})}))
"""


def test_every_traced_layer_records_a_span(tmp_path):
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-c", SCRIPT, str(ROOT / "bench")], cwd=tmp_path,
                          capture_output=True, text=True, timeout=120, env=env)
    assert proc.returncode == 0, proc.stderr
    names = json.loads(proc.stdout.splitlines()[-1])
    assert names["recorded"] == names["traced"]
