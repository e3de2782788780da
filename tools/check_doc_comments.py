#!/usr/bin/env python3
"""Header doc-comment lint: undocumented public APIs fail the build.

Checks every public header under the directories listed in CHECKED_DIRS for
two classes of violation:

  1. A namespace-scope declaration (class/struct/enum definition, using
     alias, function, or inline/constexpr variable) without a preceding
     `///` Doxygen comment.
  2. A public member-function declaration inside a class/struct without a
     preceding `///` comment or a trailing `///<` comment.

Deliberately exempt, to keep the signal high: constructors/destructors,
operators, `= default`/`= delete` lines, friend declarations, forward
declarations, data members (struct fields commonly carry `///<` trailers,
which stay optional), private/protected sections, and anything inside a
function body.

This is a heuristic lexer, not a C++ parser — it is tuned to this
codebase's style (one declaration starts per line, Google-ish formatting).
If it misfires on a construct, prefer reformatting the declaration; add an
exemption here only as a last resort.

Usage: python3 tools/check_doc_comments.py [repo_root]
Exit code 0 = clean, 1 = violations (listed one per line).
"""

import re
import sys
from pathlib import Path

CHECKED_DIRS = ["src/core", "src/sim", "src/scenario"]

# Lines that begin a documentable namespace-scope declaration.
TYPE_RE = re.compile(r"^(template\s*<.*>\s*)?(class|struct|enum(\s+class)?|union)\s+[A-Za-z_]\w*")
USING_RE = re.compile(r"^using\s+[A-Za-z_]\w*\s*=")
VAR_RE = re.compile(r"^(inline\s+)?constexpr\s+[\w:<>,\s]+\b[A-Za-z_]\w*\s*[={]")
FUNC_RE = re.compile(r"^(\[\[nodiscard\]\]\s*)?(template\s*<.*>\s*)?"
                     r"(static\s+|inline\s+|constexpr\s+|virtual\s+|friend\s+)*"
                     r"[\w:<>,&*\s]+?\b([A-Za-z_]\w*)\s*\(")
ACCESS_RE = re.compile(r"^(public|protected|private)\s*:")
OPERATOR_RE = re.compile(r"\boperator\b")
TEMPLATE_RE = re.compile(r"^template\s*<.*>\s*$")


def is_documented(lines, i):
    """True when line i carries or follows a /// doc comment. A template
    header line between the comment and the declaration belongs to the
    declaration."""
    if "///<" in lines[i]:
        return True
    j = i - 1
    while j >= 0 and (lines[j].strip() == "" or
                      TEMPLATE_RE.match(lines[j].strip())):
        j -= 1
    return j >= 0 and lines[j].strip().startswith("///")


def strip_strings(line):
    """Blanks out string/char literals so braces inside them don't count."""
    return re.sub(r'"(\\.|[^"\\])*"|\'(\\.|[^\'\\])*\'', '""', line)


def check_header(path):
    violations = []
    raw = path.read_text().splitlines()
    lines = raw

    depth = 0                 # brace depth
    namespace_depth = 0       # depth reached by namespace braces only
    class_stack = []          # (depth_at_open, class_name, access, exempt)
    continuation = False      # inside a multi-line declaration header
    paren_balance = 0

    for i, raw_line in enumerate(lines):
        line = strip_strings(raw_line)
        stripped = line.strip()
        code = stripped.split("//")[0].rstrip()

        if continuation:
            paren_balance += code.count("(") - code.count(")")
            if code.endswith((";", "{", "}")) and paren_balance <= 0:
                continuation = False
            depth += code.count("{") - code.count("}")
            continue

        if code.startswith("namespace") and code.endswith("{"):
            depth += 1
            namespace_depth += 1
            continue

        at_namespace_scope = depth == namespace_depth and not class_stack
        in_class = bool(class_stack) and depth == class_stack[-1][0] + 1

        if in_class:
            match = ACCESS_RE.match(code)
            if match:
                class_stack[-1] = (class_stack[-1][0], class_stack[-1][1],
                                   match.group(1), class_stack[-1][3])

        in_exempt_class = bool(class_stack) and class_stack[-1][3]
        documentable = None
        if code and (at_namespace_scope or in_class) and not in_exempt_class:
            if TYPE_RE.match(code) and not code.endswith(";"):
                if at_namespace_scope or (in_class and class_stack[-1][2] == "public"):
                    documentable = ("type", code)
            elif at_namespace_scope and USING_RE.match(code):
                documentable = ("alias", code)
            elif at_namespace_scope and VAR_RE.match(code):
                documentable = ("constant", code)
            elif (FUNC_RE.match(code) and not OPERATOR_RE.search(code)
                  and "= default" not in code and "= delete" not in code
                  and not code.startswith(("friend", "typedef", "#"))
                  and "~" not in code):
                func_name = FUNC_RE.match(code).group(4)
                if in_class:
                    cls = class_stack[-1]
                    ctor = func_name == cls[1]
                    if cls[2] == "public" and not ctor:
                        documentable = ("member function", code)
                elif at_namespace_scope:
                    # Wrapped declarations too: the first line of one ends
                    # in "(" or ",", not ";" or "{".
                    documentable = ("function", code)

        if documentable and not is_documented(lines, i):
            kind, decl = documentable
            violations.append(f"{path}:{i + 1}: undocumented {kind}: {decl[:80]}")

        if TYPE_RE.match(code) and not code.endswith(";"):
            name_match = re.search(r"(class|struct|enum(?:\s+class)?|union)\s+([A-Za-z_]\w*)", code)
            default_access = "private" if code.startswith("class") else "public"
            # A type nested in a non-public section is an implementation
            # detail: its members are exempt.
            exempt = bool(class_stack) and (class_stack[-1][2] != "public"
                                            or class_stack[-1][3])
            if "{" in code:
                class_stack.append((depth, name_match.group(2), default_access,
                                    exempt))
        elif class_stack and code == "};" and depth == class_stack[-1][0] + 1:
            class_stack.pop()

        # Multi-line declaration header (open parens or trailing comma/op).
        paren_balance = code.count("(") - code.count(")")
        if code and not code.endswith((";", "{", "}", ":")) and \
                (paren_balance > 0 or code.endswith((",", "&&", "||", "=", "+"))):
            continuation = True

        depth += code.count("{") - code.count("}")
        if depth < namespace_depth:
            namespace_depth = depth

    return violations


def main():
    root = Path(sys.argv[1]) if len(sys.argv) > 1 else Path(__file__).resolve().parent.parent
    all_violations = []
    checked = 0
    for directory in CHECKED_DIRS:
        for header in sorted((root / directory).glob("*.h")):
            checked += 1
            all_violations.extend(check_header(header))
    for violation in all_violations:
        print(violation)
    print(f"checked {checked} headers in {', '.join(CHECKED_DIRS)}: "
          f"{len(all_violations)} undocumented public declaration(s)")
    return 1 if all_violations else 0


if __name__ == "__main__":
    sys.exit(main())
