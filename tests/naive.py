"""String-based reference implementations used as test oracles.

Everything here works on plain '0'/'1' strings and deliberately shares no
code with the package: brute-force enumeration, closure-based rank, and a
literal transcription of the recursive permutation. Slow and obviously
correct.
"""

from functools import reduce
from itertools import combinations
from math import comb
from operator import xor as xor_int


def xor(a: str, b: str) -> str:
    assert len(a) == len(b)
    return "".join("1" if x != y else "0" for x, y in zip(a, b))


def weight(a: str) -> int:
    return a.count("1")


def dist(a: str, b: str) -> int:
    return weight(xor(a, b))


def words(n: int) -> list[str]:
    return [format(v, f"0{n}b") for v in range(2**n)]


def tau(s: str) -> str:
    return s[:-2] + s[-1] + s[-2]


def sigma(s: str) -> str:
    return tau(s[:-1] + ("0" if s[-1] == "1" else "1"))


def g(s: str) -> str:
    if len(s) == 2:
        return s
    if s[0] == "0":
        y = g(s[1:])
        return y[0] + y
    y = g(sigma(s)[1:])
    return ("0" if y[0] == "1" else "1") + y


def apply_gens(gens: list[str], x: str) -> str:
    acc = "0" * len(gens[0])
    for bit, gen in zip(x, gens):
        if bit == "1":
            acc = xor(acc, gen)
    return acc


def rows_of_columns(n: int, columns: list[int]) -> list[int]:
    """The rows of the n-row generator matrix whose column b (output bit
    2^(m-b)) is columns[b - 1]: row i takes bit 2^(n-i) of each column."""
    m = len(columns)
    return [
        sum((c >> (n - i) & 1) << (m - b) for b, c in enumerate(columns, start=1))
        for i in range(1, n + 1)
    ]


def tabulate_gens(gens: list[str], n: int) -> dict[str, str]:
    return {x: apply_gens(gens, x) for x in words(n)}


def all_pairs(n: int, k: int = 1) -> list[tuple[str, str]]:
    return [
        (a, b) for a, b in combinations(words(n), 2) if 1 <= dist(a, b) <= k
    ]


def diffusion_sums(table: dict[str, str], n: int, k: int = 1) -> list[int]:
    m = len(next(iter(table.values())))
    sums = [0] * m
    for a, b in all_pairs(n, k):
        d = xor(table[a], table[b])
        for j in range(m):
            sums[j] += int(d[j])
    return sums


def pattern_image_sums(table: dict[str, str], n: int, k: int) -> list[int]:
    """Per-output-bit pair sums at distance 1..k of a linear map, given as
    its table: the 2^(n-1) pairs {x, x ^ d} all differ by the image of d,
    so each pattern's image bits count 2^(n-1) times."""
    m = len(next(iter(table.values())))
    sums = [0] * m
    for d, image in table.items():
        if 1 <= weight(d) <= k:
            for j in range(m):
                sums[j] += int(image[j])
    return [s * 2 ** (n - 1) for s in sums]


def krawtchouk(j: int, w: int, n: int) -> int:
    """K_j(w; n), the explicit sum over the i places where a weight-j
    pattern meets a fixed weight-w word, each counted with sign (-1)^i."""
    return sum((-1) ** i * comb(w, i) * comb(n - w, j - i) for i in range(j + 1))


def krawtchouk_roots(n: int, k: int) -> list[int]:
    """The weights w in 0..n with sum_{j=1..k} K_j(w; n) = 0: the column
    weights of a k-diffusive generator matrix."""
    sums = [sum(krawtchouk(j, w, n) for j in range(1, k + 1)) for w in range(n + 1)]
    return [w for w, s in enumerate(sums) if s == 0]


def dispersion_violations(
    table: dict[str, str], n: int, k: int = 1
) -> list[tuple[str, str, int]]:
    m = len(next(iter(table.values())))
    return [
        (a, b, dist(table[a], table[b]))
        for a, b in all_pairs(n, k)
        if 2 * dist(table[a], table[b]) != m
    ]


def is_dispersive(table: dict[str, str], n: int, k: int = 1) -> bool:
    m = len(next(iter(table.values())))
    if m % 2:
        return False
    if len(set(table.values())) != len(table):
        return False
    return not dispersion_violations(table, n, k)


def rank_closure(rows: list[str]) -> int:
    """Rank via span closure: the span of r vectors has 2^rank members."""
    span = {0}
    for row in rows:
        v = int(row, 2)
        span |= {s ^ v for s in span}
    return len(span).bit_length() - 1


def rao_bound(n: int, k: int) -> int:
    """Rao's bound on the runs of a binary orthogonal array of strength k
    on n factors, by counting words: those of weight <= k//2 in n bits,
    plus, for odd k, those of weight k//2 in n-1 bits."""
    e = k // 2
    runs = sum(1 for v in range(1 << n) if v.bit_count() <= e)
    if k % 2:
        runs += sum(1 for v in range(1 << (n - 1)) if v.bit_count() == e)
    return runs


def first_linear_witness(
    n: int, k: int, m: int, budget: int
) -> tuple[bool, list[str] | None, bool]:
    """(found, witness, exhausted) of the unrestricted search: every
    weight-m/2 word, ascending, at every depth, with the same pruning
    (each XOR of 1..k generators semi-weight, generators independent).
    More than ``budget`` candidates tried stops it unsettled."""
    semis = [v for v in range(1 << m) if v.bit_count() * 2 == m]
    examined = 0

    def extend(chosen: list[int]) -> list[int] | None:
        nonlocal examined
        span = {0}
        for g in chosen:
            span |= {s ^ g for s in span}
        subsets = [
            reduce(xor_int, c, 0)
            for size in range(k)
            for c in combinations(chosen, size)
        ]
        for v in semis:
            examined += 1
            if examined > budget:
                return None
            if v in span:
                continue
            if any((v ^ s).bit_count() * 2 != m for s in subsets):
                continue
            if len(chosen) + 1 == n:
                return chosen + [v]
            hit = extend(chosen + [v])
            if hit is not None or examined > budget:
                return hit
        return None

    witness = extend([])
    if witness is not None:
        return True, [format(v, f"0{m}b") for v in witness], False
    return False, None, examined <= budget


# The map file formats, one line at a time: the table reader and writer
# the array passes in f2linear replaced, and a matrix reader, kept with
# every check in its order.
MAX_WIDTH = 64
MAX_TABLE_BITS = 28


def serialize_table(n: int, m: int, values: list[int]) -> str:
    lines = [f"{n} {m}"]
    lines.extend(f"{j:0{n}b} {v:0{m}b}" for j, v in enumerate(values))
    return "\n".join(lines) + "\n"


def parse_map(text: str) -> tuple[int, int, list[int]]:
    """(n, m, outputs) of a table file or (n, m, rows) of a matrix file,
    told apart by line 2: table lines carry two fields, matrix rows one."""
    lines = _lines(text)
    if len(lines) < 2:
        raise ValueError("map file needs a header and at least one row")
    return (parse_table if " " in lines[1] else parse_matrix)(text)


def _lines(text: str) -> list[str]:
    """The lines of a map file, after the checks that come first in both
    formats."""
    if not text.endswith("\n"):
        raise ValueError("map file must end with a newline")
    lines = text[:-1].split("\n")
    if not lines[0]:
        raise ValueError("empty map file")
    return lines


def _header(line: str) -> tuple[int, int]:
    parts = line.split(" ")
    try:
        n, m = map(int, parts)
        if [str(n), str(m)] != parts:
            raise ValueError
    except ValueError:
        raise ValueError(f"bad header line: {line!r}") from None
    if not (1 <= n <= MAX_WIDTH and 1 <= m <= MAX_WIDTH):
        raise ValueError(f"bad dimensions in header: {line!r}")
    return n, m


def parse_matrix(text: str) -> tuple[int, int, list[int]]:
    """(n, m, rows) of a generator matrix file, or the ValueError it earns:
    every row is read as a word before any is checked against m."""
    lines = _lines(text)
    n, m = _header(lines[0])
    if len(lines) != n + 1:
        raise ValueError(f"expected {n} rows after header, got {len(lines) - 1}")
    for row in lines[1:]:
        if not row or row.strip("01"):
            raise ValueError(f"not a binary word: {row!r}")
        if len(row) > MAX_WIDTH:
            raise ValueError(f"width must be in 1..{MAX_WIDTH}, got {len(row)}")
    for row in lines[1:]:
        if len(row) != m:
            raise ValueError(f"generator width {len(row)} != output dim {m}")
    return n, m, [int(row, 2) for row in lines[1:]]


def parse_table(text: str) -> tuple[int, int, list[int]]:
    """(n, m, outputs) of a table file, or the ValueError it earns."""
    lines = _lines(text)
    n, m = _header(lines[0])
    if n > MAX_TABLE_BITS:
        raise ValueError(
            f"a table on n={n} inputs exceeds the cap of 2^{MAX_TABLE_BITS} entries"
        )
    size = 1 << n
    if len(lines) != size + 1:
        raise ValueError(f"expected {size} entries after header, got {len(lines) - 1}")
    outputs = []
    for j, line in enumerate(lines[1:]):
        parts = line.split(" ")
        if len(parts) != 2:
            raise ValueError(f"bad table line: {line!r}")
        inp, out = parts
        if inp != format(j, f"0{n}b"):
            raise ValueError(
                f"table inputs must ascend: expected {format(j, f'0{n}b')}, got {inp!r}"
            )
        if not out or out.strip("01"):
            raise ValueError(f"not a binary word: {out!r}")
        if len(out) != m:
            raise ValueError(f"output width {len(out)} != {m}")
        outputs.append(int(out, 2))
    return n, m, outputs
