"""Surface census: who, outside ``tests/``, reaches each module and public name of ``src/repro``.

A module that ``examples/`` + ``benchmarks/`` do not import (transitively), or a public function,
class or method of >= 8 lines that nothing outside ``tests/`` names, is deleted with its tests --
unless ``KEEP`` gives it one reason: K1 safety code (outside input, durability, the reference a
safety-net test compares against), K2 transcribes a numbered paper artefact no benchmark reads
yet (ROADMAP item 5 (e)), K3 reserved by a named open ROADMAP item.  A reference is an
identifier (``Name``, ``Attribute``, import alias, string constant -- ``benchmarks/e2e/tracer.py``
wraps entry points by name) in another file, or in the defining file outside the definition, so
a same-named attribute elsewhere keeps a name alive: the census under-reports, never accuses.
Package ``__init__`` files are neither importers nor references; their re-exports are followed
to the defining module.  Only absolute imports are followed (the repository has no other kind).

    python tools/census.py            # every module and >= 8-line name with its referrers
    python tools/census.py --check    # exit 1 on an unaccounted name or a stale KEEP entry
    python tools/census.py --write    # regenerate DESIGN.md's inventory table
"""
import ast
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
AREAS = ("src", "examples", "benchmarks", "tests")
MIN_LINES = 8
BEGIN, END = "<!-- census:begin -->", "<!-- census:end -->"
_ARTEFACT = "paper artefact no benchmark reads"
KEEP = {
    "repro.scenarios.corpus": ("K1", "loads the regression corpus CI replays"),
    "repro.bifrost.journal.FileJournalStorage": ("K1", "the durable journal: fsync, torn tail"),
    "repro.bifrost.journal.snapshot_to_dict": ("K1", "persists an engine snapshot to storage"),
    "repro.bifrost.journal.snapshot_from_dict": ("K1", "validates a persisted snapshot on load"),
    "repro.bifrost.dsl.parse_file": ("K1", "reads a strategy file from disk, errors included"),
    "repro.fenrir.schedule.Schedule.group_usage": ("K1", "the ledger pack_repair's tests check"),
    "repro.study.interviews": ("K2", f"Table 2.1 -- {_ARTEFACT}"),
    "repro.study.comparison": ("K2", f"Table 2.5 -- {_ARTEFACT}"),
    "repro.study.data.published_table": ("K2", f"Tables 2.2-2.9 by number -- {_ARTEFACT}"),
    "repro.core.framework": ("K2", f"Chapter 1's framework -- {_ARTEFACT}"),
    "repro.core.lifecycle": ("K2", f"Chapter 1's life cycle -- {_ARTEFACT}"),
    "repro.topology.visualize.diff_to_dot": ("K2", f"Fig 1.3 -- {_ARTEFACT}"),
    "repro.bifrost.state_machine.StateMachine.to_dot": ("K2", f"Fig 4.2 -- {_ARTEFACT}"),
    **dict.fromkeys(("repro.stats.abtest", "repro.stats.sequential", "repro.stats.hypothesis",
                     "repro.stats.power"),
                    ("K3", "ROADMAP items 6 (b) / 7 (d): `kind test` calls it or it is deleted")),
    "repro.routing.assignment.StickyAssigner.distinct_users": ("K3", "ROADMAP item 7 (b): SRM"),
}


def _area(path):
    return path.relative_to(ROOT).parts[0]


class Census:
    def __init__(self):
        paths = [p for a in AREAS for p in sorted((ROOT / a).rglob("*.py"))]
        trees = {p: ast.parse(p.read_text()) for p in paths}
        self.modules, self.packages = {}, {}  # dotted name -> path; a package is its __init__
        for p in trees:
            if _area(p) == "src":
                dotted = ".".join(p.relative_to(ROOT / "src").with_suffix("").parts)
                table = self.packages if p.stem == "__init__" else self.modules
                table[dotted.removesuffix(".__init__")] = p
        self._trees, self._exports, self.defs = trees, {}, []  # defs: (name, lines, referrers)
        self._scans = scans = {p: self._scan(t) for p, t in trees.items() if p.stem != "__init__"}
        self.reachable, todo = set(), [p for p in scans if _area(p) in ("examples", "benchmarks")]
        while todo:
            for mod in scans[todo.pop()][0] - self.reachable:
                self.reachable.add(mod)
                todo.append(self.modules[mod])
        for mod, path in sorted(self.modules.items()):
            for node in trees[path].body:
                for sub in [node] + (node.body if isinstance(node, ast.ClassDef) else []):
                    if isinstance(sub, (ast.FunctionDef, ast.ClassDef)) and sub.name[0] != "_":
                        refs = [p for p, (_, seen) in scans.items() if any(
                            p != path or not sub.lineno <= n <= sub.end_lineno
                            for n in seen.get(sub.name, ()))]
                        owner = mod if sub is node else f"{mod}.{node.name}"
                        lines = sub.end_lineno - sub.lineno + 1
                        self.defs.append((f"{owner}.{sub.name}", lines, refs))

    def _origin(self, base, name):
        """The module that defines ``name`` as imported from ``base``."""
        direct = f"{base}.{name}"
        if direct in self.modules or base not in self.packages:
            return direct if direct in self.modules else base
        if base not in self._exports:
            table = self._exports[base] = {}
            for node in ast.walk(self._trees[self.packages[base]]):
                if isinstance(node, ast.ImportFrom):
                    for a in node.names:
                        table[a.asname or a.name] = self._origin(node.module, a.name)
        return self._exports[base].get(name, base)

    def _scan(self, tree):
        """Modules one file imports, and every identifier it mentions with its lines."""
        mods, seen = set(), {}
        for node in ast.walk(tree):
            found = ()
            if isinstance(node, ast.ImportFrom):
                mods.update(self._origin(node.module, a.name) for a in node.names)
                found = [a.name for a in node.names]
            elif isinstance(node, ast.Import):
                mods.update(a.name for a in node.names)
            elif isinstance(node, (ast.Name, ast.Attribute)):
                found = [node.id if isinstance(node, ast.Name) else node.attr]
            elif isinstance(node, ast.Constant) and isinstance(node.value, str):
                mods.add(node.value)
                found = [node.value]
            for ident in found:
                seen.setdefault(ident, []).append(node.lineno)
        return mods & self.modules.keys(), seen

    def importers(self, mod):
        return [p for p, (mods, _) in self._scans.items() if mod in mods and p != self.modules[mod]]

    def problems(self):
        """Unaccounted modules and names, then KEEP entries that no longer hold."""
        def _kept(qual):
            return any(qual == key or qual.startswith(key + ".") for key in KEEP)
        out = [f"module {m}: no example or benchmark reaches it"
               for m in sorted(self.modules) if m not in self.reachable and not _kept(m)]
        alive = set(self.reachable)
        for qual, lines, refs in self.defs:
            if any(_area(p) != "tests" for p in refs):
                alive.add(qual)
            elif lines >= MIN_LINES and not _kept(qual):
                where = ", ".join(sorted({p.name for p in refs})) or "nothing"
                out.append(f"name {qual} ({lines} lines): referenced from {where} and nowhere else")
        known = set(self.modules).union(qual for qual, _, _ in self.defs)
        out += [f"KEEP entry {key}: no such module or name" for key in KEEP if key not in known]
        return out + [f"KEEP entry {k}: reached from outside tests/" for k in KEEP if k in alive]

    def table(self):
        """One DESIGN.md row per package."""
        rows = ["| Package | Modules | Lines | Non-test importers | Kept though tests-only |"]
        rows.append("|---|---|---|---|---|")
        for pkg in sorted(k for k in self.packages if k.count(".") == 1):
            own = {m: p for m, p in (self.modules | self.packages).items()
                   if f"{m}.".startswith(f"{pkg}.")}
            lines = sum(len(p.read_text().splitlines()) for p in own.values())
            users = {p for m in own if m in self.modules for p in self.importers(m)
                     if _area(p) != "tests" and p not in own.values()}
            keeps = "; ".join(f"`{key.removeprefix(pkg + '.')}` **{code}** {why}"
                              for key, (code, why) in KEEP.items() if key.startswith(pkg + "."))
            modules = sum(m in self.modules for m in own)
            rows.append(f"| `{pkg}` | {modules} | {lines} | {len(users)} | {keeps or '—'} |")
        return "\n".join(rows)


def main(argv):
    census = Census()
    if argv == ["--write"]:
        design = ROOT / "DESIGN.md"
        head, rest = design.read_text().split(BEGIN)
        design.write_text(f"{head}{BEGIN}\n{census.table()}\n{END}{rest.split(END)[1]}")
    if not argv:
        listing = [(m, "reached" if m in census.reachable else "UNREACHED", census.importers(m))
                   for m in sorted(census.modules)]
        listing += [(q, f"{n} lines", refs) for q, n, refs in census.defs if n >= MIN_LINES]
        for what, note, refs in listing:
            print(what, note, *(f"{a}={sum(_area(p) == a for p in refs)}" for a in AREAS))
    problems = census.problems()
    print("\n".join(problems) or "census: every module and public name is accounted for")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
