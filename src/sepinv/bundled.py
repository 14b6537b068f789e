"""The worked models that ship with the package.

Each bundled model is one JSON manifest under `data/manifests/`, and that
file is its only description: `sepinv reproduce NAME`, `-m NAME` on every
other subcommand, and the tests all build it through `load`.  Five ship:

- `id10253`, a rank-four unipotent action over F_2 whose invariant ring has
  a known presentation; its relations are declared in the manifest;
- `additive-2`, `additive-3` and `additive-5`, the translation action of
  F_p on a line, which no reflection bound covers;
- `two-planes`, an order-two swap of two planes in four-space, whose union
  is not Cohen-Macaulay.

Each model's expected values live beside it under `data/expected/`.
"""

import json
from importlib import resources

from .config import Caps
from .errors import ManifestError
from .manifest import Manifest


def _manifests():
    return resources.files("sepinv").joinpath("data/manifests")


def names():
    """The names of the packaged manifests, sorted."""
    return sorted(p.name[:-len(".json")] for p in _manifests().iterdir()
                  if p.name.endswith(".json"))


def load(name, p=None, caps=Caps()):
    """Build a packaged model by name; `additive-p` takes its prime from p."""
    if name == "additive-p":
        name = f"additive-{2 if p is None else p}"
    known = names()
    if name not in known:
        raise ManifestError(f"unknown bundled model {name!r}; known bundled "
                            "models: " + ", ".join(known))
    doc = json.loads(_manifests().joinpath(name + ".json")
                     .read_text(encoding="utf-8"))
    return Manifest.from_dict(doc, caps).build()
