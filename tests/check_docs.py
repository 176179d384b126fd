#!/usr/bin/env python3
"""Documentation consistency check (ctest -L docs).

Fourteen guarantees:
  1. Every relative markdown link `[text](path)` in the repo's *.md files
     resolves to an existing file or directory (absolute URLs are
     skipped).
  2. Every `#fragment` on a markdown link — in-page (`#section`) or
     cross-file (`FILE.md#section`) — names a real heading in the target
     file, GitHub-slugged, so a renamed section cannot leave dangling
     anchors.
  3. README.md, DESIGN.md, EXPERIMENTS.md and docs/*.md only reference
     files that exist: every backtick token that looks like a repo path
     (src/..., tests/..., bench/..., examples/..., docs/...) must name a
     real file or directory, so the docs cannot silently rot as code
     moves. Two shorthands are accepted: `x.hpp/.cpp` names both files,
     and `bench/<name>` or `examples/<name>` names the binary built from
     `<name>.cpp`.
  4. README.md's "Test labels & coverage" list is complete: every ctest
     label registered via LABELS in tests/CMakeLists.txt must appear in
     README.md spelled `-L <label>`, so a new label cannot ship
     undocumented.
  5. Every `GPUHMS_*` environment variable read via getenv in src/ or
     examples/ is documented in README.md or docs/SERVING.md, so an
     operator knob cannot ship undocumented.
  6. The reverse: every `GPUHMS_*` row of docs/SERVING.md's "Environment
     variables" table is read via getenv in src/ or examples/, so a
     deleted knob cannot leave a stale row behind.
  7. docs/SERVING.md's "Command-line flags" table and the flags
     examples/gpuhms_serve.cpp parses are the same set, in both
     directions.
  8. docs/MODEL_MAP.md only names symbols that exist: in every
     "Implementation" cell, each backticked symbol that follows a file
     path must occur in that file or its .hpp/.cpp sibling (the last `::`
     component is matched, call arguments dropped), so a deleted function
     cannot leave a stale row behind.
  9. Every code in docs/SERVING.md's "Error responses and error codes"
     table is a `to_string(StatusCode)` spelling from
     src/common/status.cpp, so the table cannot promise a code the
     service can never send.
 10. Every `BENCH_*.json` named in README.md, DESIGN.md, EXPERIMENTS.md
     or docs/*.md exists at the repo root, so the docs cannot cite a
     bench record nobody checked in.
 11. The fault-site list in README.md's "Fault injection" bullet and the
     "Registered sites" comment in src/common/fault_injection.hpp each
     equal the kSites array in src/common/fault_injection.cpp, so a site
     cannot be added or removed without the docs following.
 12. Every metric name in DESIGN.md's "Metric taxonomy" table (layer
     prefix + backticked name) occurs as a string literal in src/, so a
     deleted counter cannot leave a stale row behind. `name[_a/_b]`
     stands for name, name_a and name_b; `name_*` is a prefix; backticks
     inside parentheses are prose, not metric names.
 13. docs/SERVING.md's "Request grammar" block and the key table
     src/serve/service.cpp checks every request against (`kEveryVerbKeys`
     and the per-verb `kVerbKeys` rows) name the same verbs and, for each
     verb, the same keys, so a deleted wire field cannot linger in the
     grammar and a new one cannot ship undocumented.
 14. The flags examples/placement_advisor.cpp parses and the flags its
     print_help() text lists are the same set, in both directions; every
     `--flag` on a placement_advisor command line in README.md, DESIGN.md,
     EXPERIMENTS.md or docs/*.md (or in the backtick span after
     "placement_advisor's") is in that set; and every other backticked
     `--flag` there is spelled by some program in examples/ or bench/, so
     a deleted flag cannot linger anywhere in the docs.

Usage: check_docs.py [repo_root]   (default: parent of this script's dir)
Exit 0 when clean, 1 with a per-problem report otherwise.
"""

import os
import re
import sys

SKIP_DIRS = {".git", "build", "bench_build", "third_party", ".claude"}
LINK_RE = re.compile(r"\[[^\]]*\]\(([^)\s]+)\)")
# `src/model/tcomp.cpp` or `bench/bench_bnb_scaling.cpp (E19)` etc.
CODE_PATH_RE = re.compile(
    r"`((?:src|tests|bench|examples|docs)/[A-Za-z0-9_./-]+)`")


def find_markdown(root):
    for dirpath, dirnames, filenames in os.walk(root):
        dirnames[:] = [
            d for d in dirnames
            if d not in SKIP_DIRS and not d.startswith("build")
        ]
        for name in filenames:
            if name.endswith(".md"):
                yield os.path.join(dirpath, name)


def github_slug(heading):
    """GitHub's heading -> anchor slug: lowercase, drop punctuation except
    hyphens/underscores, spaces become hyphens. Backticks and links inside
    the heading contribute their text only."""
    text = re.sub(r"\[([^\]]*)\]\([^)]*\)", r"\1", heading)  # [t](url) -> t
    text = text.replace("`", "").strip().lower()
    text = re.sub(r"[^\w\- ]", "", text)
    return text.replace(" ", "-")


def heading_anchors(md_path):
    """The set of valid anchor slugs in a markdown file, with GitHub's
    -1, -2 suffixes for duplicate headings."""
    anchors = set()
    counts = {}
    in_fence = False
    with open(md_path, encoding="utf-8") as f:
        for line in f:
            if line.lstrip().startswith("```"):
                in_fence = not in_fence
                continue
            if in_fence or not line.startswith("#"):
                continue
            m = re.match(r"#{1,6}\s+(.*)", line)
            if not m:
                continue
            slug = github_slug(m.group(1))
            n = counts.get(slug, 0)
            counts[slug] = n + 1
            anchors.add(slug if n == 0 else f"{slug}-{n}")
    return anchors


def check_links(md_path, root, anchor_cache):
    problems = []
    with open(md_path, encoding="utf-8") as f:
        text = f.read()

    def anchors_of(path):
        if path not in anchor_cache:
            anchor_cache[path] = heading_anchors(path)
        return anchor_cache[path]

    in_fence = False
    for lineno, line in enumerate(text.splitlines(), start=1):
        if line.lstrip().startswith("```"):
            in_fence = not in_fence
            continue
        if in_fence:
            continue  # quoted/example content, not our documentation
        for target in LINK_RE.findall(line):
            if re.match(r"^[a-z]+://", target):
                continue  # external URL
            if target.startswith("mailto:"):
                continue
            path, _, fragment = target.partition("#")
            resolved = md_path if not path else os.path.normpath(
                os.path.join(os.path.dirname(md_path), path))
            if not os.path.exists(resolved):
                problems.append(
                    f"{os.path.relpath(md_path, root)}:{lineno}: "
                    f"broken relative link '{target}'")
                continue
            if not fragment or not resolved.endswith(".md"):
                continue
            if fragment not in anchors_of(resolved):
                problems.append(
                    f"{os.path.relpath(md_path, root)}:{lineno}: "
                    f"dangling anchor '#{fragment}' — no heading in "
                    f"{os.path.relpath(resolved, root)} slugs to it")
    return problems


def prose_docs(root):
    """README.md, DESIGN.md, EXPERIMENTS.md and docs/*.md, repo-relative."""
    docs = ["README.md", "DESIGN.md", "EXPERIMENTS.md"]
    docs_dir = os.path.join(root, "docs")
    if os.path.isdir(docs_dir):
        docs += sorted(os.path.join("docs", n) for n in os.listdir(docs_dir)
                       if n.endswith(".md"))
    return [d for d in docs if os.path.exists(os.path.join(root, d))]


# `src/common/concurrent_cache.hpp/.cpp`: one token naming both files.
SIBLING_PAIR_RE = re.compile(r"(.+)\.(hpp|cpp)/\.(hpp|cpp)")


def missing_files(root, ref):
    """The files a backticked repo path names that do not exist."""
    pair = SIBLING_PAIR_RE.fullmatch(ref)
    if pair:
        files = [f"{pair.group(1)}.{pair.group(2)}",
                 f"{pair.group(1)}.{pair.group(3)}"]
        return [f for f in files if not os.path.exists(os.path.join(root, f))]
    if os.path.exists(os.path.join(root, ref)):
        return []
    if (ref.startswith(("bench/", "examples/"))
            and os.path.exists(os.path.join(root, ref + ".cpp"))):
        return []  # a binary name: bench/bench_bnb_scaling
    return [ref]


def check_repo_paths(root):
    if not os.path.exists(os.path.join(root, "docs", "MODEL_MAP.md")):
        return ["docs/MODEL_MAP.md is missing"]
    problems = []
    for doc in prose_docs(root):
        with open(os.path.join(root, doc), encoding="utf-8") as f:
            for lineno, line in enumerate(f, start=1):
                for ref in CODE_PATH_RE.findall(line):
                    for missing in missing_files(root, ref):
                        problems.append(
                            f"{doc}:{lineno}: references nonexistent file "
                            f"'{missing}'")
    return problems


BACKTICK_RE = re.compile(r"`([^`]+)`")
IDENT_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")


def model_map_symbols(root):
    """(lineno, file, symbol) for every backticked symbol that follows a
    file path in a docs/MODEL_MAP.md "Implementation" cell. The symbol is
    the last `::` component with any call arguments dropped; tokens that do
    not reduce to an identifier (flags, expressions) are not symbols."""
    path = os.path.join(root, "docs", "MODEL_MAP.md")
    out = []
    column = None
    with open(path, encoding="utf-8") as f:
        for lineno, line in enumerate(f, start=1):
            if not line.startswith("|"):
                column = None  # a table ended
                continue
            cells = [c.strip() for c in line.strip().strip("|").split("|")]
            if column is None:  # header row of a new table
                column = (cells.index("Implementation")
                          if "Implementation" in cells else -1)
                continue
            if column < 0 or column >= len(cells):
                continue
            current = None
            for token in BACKTICK_RE.findall(cells[column]):
                if CODE_PATH_RE.fullmatch(f"`{token}`"):
                    current = token
                    continue
                name = token.split("(")[0].strip().split("::")[-1]
                if current and IDENT_RE.fullmatch(name):
                    out.append((lineno, current, name))
    return out


def check_model_map_symbols(root):
    problems = []
    texts = {}

    def text_of(rel):
        if rel not in texts:
            full = os.path.join(root, rel)
            texts[rel] = ""
            if os.path.isfile(full):
                with open(full, encoding="utf-8", errors="replace") as f:
                    texts[rel] = f.read()
        return texts[rel]

    for lineno, rel, name in model_map_symbols(root):
        stem, ext = os.path.splitext(rel)
        candidates = [rel]
        if ext in (".cpp", ".hpp"):
            candidates.append(stem + (".hpp" if ext == ".cpp" else ".cpp"))
        pattern = re.compile(r"\b" + re.escape(name) + r"\b")
        if not any(pattern.search(text_of(c)) for c in candidates):
            problems.append(
                f"docs/MODEL_MAP.md:{lineno}: names '{name}', which occurs "
                f"in neither {' nor '.join(candidates)}")
    return problems


# `LABELS robustness`, `LABELS "serve;soak;concurrency"`, and the
# `set(_san_... LABELS ...)`-free set_tests_properties spellings all reduce
# to: the token(s) after a LABELS keyword, optionally quoted, ';'-separated.
LABELS_RE = re.compile(r"\bLABELS\s+\"?([A-Za-z0-9;_-]+)\"?")


def check_readme_labels(root):
    problems = []
    cmake_path = os.path.join(root, "tests", "CMakeLists.txt")
    readme_path = os.path.join(root, "README.md")
    if not os.path.exists(cmake_path) or not os.path.exists(readme_path):
        return ["tests/CMakeLists.txt or README.md is missing"]
    with open(cmake_path, encoding="utf-8") as f:
        cmake = f.read()
    labels = set()
    for group in LABELS_RE.findall(cmake):
        labels.update(l for l in group.split(";") if l)
    if not labels:
        return ["tests/CMakeLists.txt: no LABELS found (regex rot?)"]
    with open(readme_path, encoding="utf-8") as f:
        readme = f.read()
    for label in sorted(labels):
        if f"-L {label}" not in readme:
            problems.append(
                f"README.md: ctest label '{label}' (registered in "
                f"tests/CMakeLists.txt) is not documented — add a "
                f"`ctest -L {label}` entry to 'Test labels & coverage'")
    return problems


GETENV_RE = re.compile(r'getenv\(\s*"(GPUHMS_[A-Z0-9_]+)"')
SERVING_MD = os.path.join("docs", "SERVING.md")


def getenv_vars(root):
    """The GPUHMS_* variables read via getenv in src/ or examples/."""
    read_vars = set()
    for subdir in ("src", "examples"):
        base = os.path.join(root, subdir)
        for dirpath, _dirnames, filenames in os.walk(base):
            for name in filenames:
                if not name.endswith((".cpp", ".hpp", ".h", ".cc")):
                    continue
                with open(os.path.join(dirpath, name),
                          encoding="utf-8", errors="replace") as f:
                    read_vars.update(GETENV_RE.findall(f.read()))
    return read_vars


def check_env_vars(root):
    """Every GPUHMS_* variable read in src/ or examples/ must be documented
    in README.md or docs/SERVING.md."""
    problems = []
    read_vars = getenv_vars(root)
    if not read_vars:
        return ["no getenv(\"GPUHMS_...\") found in src/ or examples/ "
                "(regex rot?)"]
    docs = ""
    for doc in ("README.md", SERVING_MD):
        path = os.path.join(root, doc)
        if os.path.exists(path):
            with open(path, encoding="utf-8") as f:
                docs += f.read()
    for var in sorted(read_vars):
        if var not in docs:
            problems.append(
                f"environment variable '{var}' is read in src/ or "
                f"examples/ but documented in neither README.md nor "
                f"docs/SERVING.md")
    return problems


def table_rows(md_path, heading):
    """First-cell texts of the table rows under the heading titled
    `heading`, at any level (up to the next heading), header and separator
    rows excluded."""
    rows = []
    in_section = False
    with open(md_path, encoding="utf-8") as f:
        for line in f:
            m = re.match(r"#{1,6}\s+(.*)", line)
            if m:
                in_section = m.group(1).strip() == heading
                continue
            if in_section and line.startswith("|"):
                rows.append(line.split("|")[1].strip())
    return rows[2:]  # drop the header row and the |---| separator


def check_serving_env_rows(root):
    """Every GPUHMS_* row of SERVING.md's environment table must still be
    read by getenv somewhere in src/ or examples/."""
    path = os.path.join(root, SERVING_MD)
    read_vars = getenv_vars(root)
    rows = table_rows(path, "Environment variables")
    if not rows:
        return [f"{SERVING_MD}: no 'Environment variables' table found"]
    problems = []
    for cell in rows:
        for var in re.findall(r"GPUHMS_[A-Z0-9_]+", cell):
            if var not in read_vars:
                problems.append(
                    f"{SERVING_MD}: environment table documents '{var}', "
                    f"but nothing in src/ or examples/ reads it via getenv")
    return problems


# `std::strcmp(arg, "--help")` and `flag_value(arg, "--socket", ...)`.
PARSED_FLAG_RE = re.compile(
    r'(?:strcmp\(\s*arg\s*,|flag_value\(\s*arg\s*,)\s*"(--[a-z][a-z0-9-]*)"')


def check_serving_flags(root):
    """SERVING.md's flag table and gpuhms_serve's parsed flags must be the
    same set."""
    path = os.path.join(root, SERVING_MD)
    daemon = os.path.join(root, "examples", "gpuhms_serve.cpp")
    with open(daemon, encoding="utf-8") as f:
        parsed = set(PARSED_FLAG_RE.findall(f.read()))
    documented = set()
    for cell in table_rows(path, "Command-line flags"):
        documented.update(re.findall(r"`(--[a-z][a-z0-9-]*)", cell))
    if not parsed or not documented:
        return [f"{SERVING_MD} flag table or examples/gpuhms_serve.cpp "
                "flag parsing not found (regex rot?)"]
    problems = []
    for flag in sorted(documented - parsed):
        problems.append(
            f"{SERVING_MD}: flag table documents '{flag}', but "
            f"examples/gpuhms_serve.cpp does not parse it")
    for flag in sorted(parsed - documented):
        problems.append(
            f"examples/gpuhms_serve.cpp parses '{flag}', but the "
            f"{SERVING_MD} flag table has no row for it")
    return problems


# The service's key table: `constexpr std::string_view kEveryVerbKeys =
# "id op idem";` and the rows `{"search", "benchmark arch algo ..."},` of
# `kVerbKeys[] = { ... };`.
EVERY_VERB_KEYS_RE = re.compile(r'\bkEveryVerbKeys\s*=\s*"([\w ]*)"')
VERB_KEYS_TABLE_RE = re.compile(r'\bkVerbKeys\[\]\s*=\s*\{(.*?)\n\};', re.S)
VERB_KEYS_ROW_RE = re.compile(r'\{\s*"(\w+)"\s*,\s*"([\w ]*)"\s*\}')
# A field name in the grammar: `'"cap":'`, `',"placements":['`.
GRAMMAR_KEY_RE = re.compile(r'"(\w+)":')
# A grammar production `name := body` (continuation lines are indented)
# and the op a verb production spells, `'"op":"search"'`.
PRODUCTION_RE = re.compile(r"^([\w-]+)\s*:=(.*)$")
GRAMMAR_OP_RE = re.compile(r'"op":"(\w+)"')


def grammar_block(md_path, heading):
    """Text of the first fenced code block under the heading titled
    `heading` (up to the next heading); "" when there is none."""
    lines, in_section, in_fence = [], False, False
    with open(md_path, encoding="utf-8") as f:
        for line in f:
            m = re.match(r"#{1,6}\s+(.*)", line)
            if m and not in_fence:
                in_section = m.group(1).strip() == heading
                continue
            if not in_section:
                continue
            if line.startswith("```"):
                if in_fence:
                    return "".join(lines)
                in_fence = True
                continue
            if in_fence:
                lines.append(line)
    return ""


def grammar_request_keys(block):
    """(keys every verb accepts, {verb: its own keys}) from the request
    grammar. The common keys are "op" plus the keys of the productions
    `request` marks optional (`id?`); a verb's keys are those its
    production spells plus those of the productions it references in
    brackets (`[arch]`). Comments (`# ...`) are dropped."""
    productions, name = {}, None
    for line in block.splitlines():
        line = line.split("#", 1)[0]
        m = PRODUCTION_RE.match(line)
        if m:
            name = m.group(1)
            productions[name] = m.group(2)
        elif name is not None:
            productions[name] += " " + line

    def keys(production):
        return set(GRAMMAR_KEY_RE.findall(productions.get(production, "")))

    common = {"op"}
    for ref in re.findall(r"([\w-]+)\?", productions.get("request", "")):
        common |= keys(ref)
    verbs = {}
    for production, body in productions.items():
        m = GRAMMAR_OP_RE.search(body)
        if not m:
            continue
        own = keys(production) - {"op"}
        for ref in re.findall(r"\[([\w-]+)\]", body):
            own |= keys(ref)
        verbs[m.group(1)] = own
    return common, verbs


def service_request_keys(source):
    """(kEveryVerbKeys, {verb: its kVerbKeys row}) from service.cpp; None
    when either is missing."""
    every = EVERY_VERB_KEYS_RE.search(source)
    table = VERB_KEYS_TABLE_RE.search(source)
    if not every or not table:
        return None
    verbs = {verb: set(keys.split())
             for verb, keys in VERB_KEYS_ROW_RE.findall(table.group(1))}
    return set(every.group(1).split()), verbs


def check_serving_request_keys(root):
    """SERVING.md's request grammar and the key table src/serve/service.cpp
    checks every request against must agree: the same keys for every verb,
    the same verbs, and the same per-verb keys."""
    path = os.path.join(root, SERVING_MD)
    service = os.path.join(root, "src", "serve", "service.cpp")
    with open(service, encoding="utf-8") as f:
        table = service_request_keys(f.read())
    common, verbs = grammar_request_keys(
        grammar_block(path, "Request grammar"))
    if table is None or not table[1] or not verbs:
        return [f"{SERVING_MD} request grammar or the src/serve/service.cpp "
                "request-key table not found (regex rot?)"]
    code_common, code_verbs = table
    problems = []
    if common != code_common:
        problems.append(
            f"{SERVING_MD}: request grammar accepts {sorted(common)} on "
            f"every verb, but src/serve/service.cpp's kEveryVerbKeys is "
            f"{sorted(code_common)}")
    for verb in sorted(set(verbs) | set(code_verbs)):
        if verb not in code_verbs:
            problems.append(
                f"{SERVING_MD}: request grammar documents op '{verb}', but "
                f"src/serve/service.cpp's kVerbKeys has no row for it")
        elif verb not in verbs:
            problems.append(
                f"src/serve/service.cpp's kVerbKeys has a row for op "
                f"'{verb}', but the {SERVING_MD} request grammar does not "
                f"document it")
        elif verbs[verb] != code_verbs[verb]:
            problems.append(
                f"{SERVING_MD}: request grammar gives op '{verb}' the keys "
                f"{sorted(verbs[verb])}, but src/serve/service.cpp's "
                f"kVerbKeys row accepts {sorted(code_verbs[verb])}")
    return problems


# `case StatusCode::kInvalidArgument: return "INVALID_ARGUMENT";`
STATUS_SPELLING_RE = re.compile(
    r'case\s+StatusCode::k\w+:\s*return\s+"([A-Z_]+)"')


def check_serving_error_codes(root):
    """Every code in SERVING.md's error-code table must be a spelling
    `to_string(StatusCode)` returns."""
    path = os.path.join(root, SERVING_MD)
    status_cpp = os.path.join(root, "src", "common", "status.cpp")
    with open(status_cpp, encoding="utf-8") as f:
        spellings = set(STATUS_SPELLING_RE.findall(f.read()))
    rows = table_rows(path, "Error responses and error codes")
    if not spellings or not rows:
        return [f"{SERVING_MD} error-code table or the to_string(StatusCode) "
                "spellings in src/common/status.cpp not found (regex rot?)"]
    problems = []
    for cell in rows:
        for code in re.findall(r"`([A-Za-z_]+)`", cell):
            if code not in spellings:
                problems.append(
                    f"{SERVING_MD}: error table lists code '{code}', which "
                    f"to_string(StatusCode) in src/common/status.cpp never "
                    f"returns")
    return problems


BENCH_FILE_RE = re.compile(r"BENCH_[A-Za-z0-9_]+\.json")


def check_bench_files(root):
    """Every BENCH_*.json the docs cite must exist at the repo root."""
    problems = []
    for doc in prose_docs(root):
        with open(os.path.join(root, doc), encoding="utf-8") as f:
            cited = set(BENCH_FILE_RE.findall(f.read()))
        for name in sorted(cited):
            if not os.path.exists(os.path.join(root, name)):
                problems.append(
                    f"{doc}: cites {name}, which is not checked in at the "
                    f"repo root")
    return problems


FAULT_HPP = os.path.join("src", "common", "fault_injection.hpp")
FAULT_CPP = os.path.join("src", "common", "fault_injection.cpp")


def registered_fault_sites(root):
    """The names in fault_injection.cpp's kSites array, in order."""
    with open(os.path.join(root, FAULT_CPP), encoding="utf-8") as f:
        m = re.search(r"kSites\[\]\s*=\s*\{(.*?)\};", f.read(), re.S)
    return re.findall(r'"([^"]+)"', m.group(1)) if m else []


def readme_fault_sites(root):
    """The backticked site list in parentheses in README's "Fault
    injection" bullet, or None when the bullet or list is not found."""
    with open(os.path.join(root, "README.md"), encoding="utf-8") as f:
        m = re.search(r"^\* \*\*Fault injection\*\*(.*?)(?=^\* |^$)",
                      f.read(), re.S | re.M)
    if not m:
        return None
    lst = re.search(r"\(((?:\s*`[^`]+`\s*,?)+)\)", m.group(1))
    return re.findall(r"`([^`]+)`", lst.group(1)) if lst else None


def header_fault_sites(root):
    """The site names of the "Registered sites" comment block in
    fault_injection.hpp (one `//   name — description` line each), or
    None when the block is not found."""
    with open(os.path.join(root, FAULT_HPP), encoding="utf-8") as f:
        lines = f.read().splitlines()
    try:
        start = lines.index("// Registered sites:") + 1
    except ValueError:
        return None
    sites = []
    for line in lines[start:]:
        if line.strip() == "//":
            break
        m = re.match(r"//\s+([a-z]+\.[a-z_]+)\s+—", line)
        if m:
            sites.append(m.group(1))
    return sites


def check_fault_sites(root):
    """README's and the header comment's fault-site lists must both equal
    the kSites registry."""
    registry = registered_fault_sites(root)
    if not registry:
        return [f"{FAULT_CPP}: no kSites array found (regex rot?)"]
    problems = []
    for where, listed in (
            ("README.md 'Fault injection' bullet", readme_fault_sites(root)),
            (f"{FAULT_HPP} 'Registered sites' comment",
             header_fault_sites(root))):
        if not listed:
            problems.append(f"{where}: no fault-site list found (regex rot?)")
            continue
        for site in sorted(set(listed) - set(registry)):
            problems.append(
                f"{where} lists fault site '{site}', which is not in "
                f"kSites in {FAULT_CPP}")
        for site in sorted(set(registry) - set(listed)):
            problems.append(
                f"{where} omits fault site '{site}', which is registered "
                f"in kSites in {FAULT_CPP}")
    return problems


ADVISOR_CPP = os.path.join("examples", "placement_advisor.cpp")
FLAG_TOKEN_RE = re.compile(r"(?<![\w-])(--[a-z][a-z0-9-]*)(?![\w])")
# The rest of a placement_advisor command: up to the closing backtick or
# the end of the line, plus the span in "placement_advisor's `--flag`".
ADVISOR_COMMAND_RE = re.compile(
    r"placement_advisor(?:\.cpp)?(?:'s\s+`([^`]*)`|([^`\n]*))")
PROGRAM_FLAG_RE = re.compile(r'"(--[a-z][a-z0-9-]*)')


def advisor_flags(root):
    """(parsed, listed): the flags placement_advisor parses and the flags
    its print_help() text names."""
    with open(os.path.join(root, ADVISOR_CPP), encoding="utf-8") as f:
        text = f.read()
    parsed = set(PARSED_FLAG_RE.findall(text))
    m = re.search(r"\nvoid print_help\(\) \{\n(.*?)\n\}\n", text, re.S)
    listed = set(FLAG_TOKEN_RE.findall(m.group(1))) if m else set()
    return parsed, listed


def program_flags(root):
    """Every `"--flag` string literal in examples/ and bench/ sources."""
    flags = set()
    for sub in ("examples", "bench"):
        d = os.path.join(root, sub)
        for name in sorted(os.listdir(d)):
            if name.endswith((".cpp", ".hpp")):
                with open(os.path.join(d, name), encoding="utf-8") as f:
                    flags.update(PROGRAM_FLAG_RE.findall(f.read()))
    return flags


def check_advisor_flags(root):
    """placement_advisor's parsed flags equal its help text's, and the docs
    name no flag it (or, outside its command lines, any program) lacks."""
    parsed, listed = advisor_flags(root)
    if not parsed or not listed:
        return [f"{ADVISOR_CPP}: flag parsing or print_help() text not found "
                "(regex rot?)"]
    problems = []
    for flag in sorted(listed - parsed):
        problems.append(
            f"{ADVISOR_CPP}: print_help() lists '{flag}', which the advisor "
            "does not parse")
    for flag in sorted(parsed - listed):
        problems.append(
            f"{ADVISOR_CPP}: parses '{flag}', which print_help() does not "
            "list")
    known = program_flags(root)
    for doc in prose_docs(root):
        with open(os.path.join(root, doc), encoding="utf-8") as f:
            for lineno, line in enumerate(f, start=1):
                for m in ADVISOR_COMMAND_RE.finditer(line):
                    for flag in FLAG_TOKEN_RE.findall(m.group(1) or
                                                      m.group(2)):
                        if flag not in parsed:
                            problems.append(
                                f"{doc}:{lineno}: placement_advisor has no "
                                f"flag '{flag}'")
                for span in BACKTICK_RE.findall(line):
                    for flag in FLAG_TOKEN_RE.findall(span):
                        if flag not in known:
                            problems.append(
                                f"{doc}:{lineno}: '{flag}' is not a flag of "
                                "any program in examples/ or bench/")
    return problems


STRING_LITERAL_RE = re.compile(r'"((?:[^"\\\n]|\\.)*)"')


def src_string_literals(root):
    """Every double-quoted string literal in src/'s C++ sources."""
    literals = set()
    for dirpath, _dirnames, filenames in os.walk(os.path.join(root, "src")):
        for name in filenames:
            if not name.endswith((".cpp", ".hpp", ".h", ".cc")):
                continue
            with open(os.path.join(dirpath, name),
                      encoding="utf-8", errors="replace") as f:
                literals.update(STRING_LITERAL_RE.findall(f.read()))
    return literals


def taxonomy_metrics(root):
    """(layer, name) pairs of DESIGN.md's metric taxonomy table, with
    `name[_a/_b]` expanded; a trailing `*` marks a prefix."""
    with open(os.path.join(root, "DESIGN.md"), encoding="utf-8") as f:
        text = f.read()
    m = re.search(r"^\*\*Metric taxonomy\*\*.*?\n\n((?:\|.*\n)+)", text,
                  re.M)
    if not m:
        return []
    metrics = []
    for row in m.group(1).splitlines()[2:]:
        cells = row.split("|")
        if len(cells) < 3:
            continue
        layer = cells[1].strip().strip("`")
        prose_free = re.sub(r"\([^()]*\)", "", cells[2])
        for token in re.findall(r"`([^`]+)`", prose_free):
            opt = re.fullmatch(r"([A-Za-z0-9_]+)\[([^\]]+)\]", token)
            names = ([opt.group(1)] + [opt.group(1) + suffix
                                       for suffix in opt.group(2).split("/")]
                     if opt else [token])
            metrics.extend((layer, n) for n in names)
    return metrics


def check_metric_taxonomy(root):
    """Every metric the DESIGN.md taxonomy table names must be a string
    literal somewhere in src/."""
    metrics = taxonomy_metrics(root)
    if not metrics:
        return ["DESIGN.md: no 'Metric taxonomy' table found (regex rot?)"]
    literals = src_string_literals(root)
    problems = []
    for layer, name in metrics:
        full = layer + name
        if name.endswith("*"):
            found = any(lit.startswith(full[:-1]) for lit in literals)
        else:
            found = full in literals
        if not found:
            problems.append(
                f"DESIGN.md: metric taxonomy names '{full}', which no "
                f"string literal in src/ spells")
    return problems


def main():
    root = os.path.abspath(
        sys.argv[1] if len(sys.argv) > 1
        else os.path.join(os.path.dirname(__file__), os.pardir))
    problems = []
    md_files = sorted(find_markdown(root))
    anchor_cache = {}
    for md in md_files:
        problems.extend(check_links(md, root, anchor_cache))
    problems.extend(check_repo_paths(root))
    problems.extend(check_model_map_symbols(root))
    problems.extend(check_readme_labels(root))
    problems.extend(check_env_vars(root))
    problems.extend(check_serving_env_rows(root))
    problems.extend(check_serving_flags(root))
    problems.extend(check_serving_request_keys(root))
    problems.extend(check_serving_error_codes(root))
    problems.extend(check_bench_files(root))
    problems.extend(check_fault_sites(root))
    problems.extend(check_metric_taxonomy(root))
    problems.extend(check_advisor_flags(root))

    if problems:
        print(f"docs check FAILED ({len(problems)} problem(s)):")
        for p in problems:
            print("  " + p)
        return 1
    print(f"docs check OK: {len(md_files)} markdown files, all relative "
          "links and anchors resolve, repo paths in the docs and MODEL_MAP "
          "symbols exist, every "
          "ctest label and GPUHMS_* env var is documented, SERVING.md's "
          "env, flag and error-code tables and request grammar match the "
          "code, every cited "
          "BENCH_*.json is checked in, the fault-site lists match the "
          "registry, every metric in DESIGN's taxonomy exists in src/, and "
          "placement_advisor's flags match its help text and the docs")
    return 0


if __name__ == "__main__":
    sys.exit(main())
