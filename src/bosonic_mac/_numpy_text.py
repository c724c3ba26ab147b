"""The surface serializer's numpy body: ``cli`` runs ``pair_texts`` in
place of its "%.17g" template once numpy is loaded, and gets the same
bytes.

"%.17g" rounds x to 17 significant digits, half to even, and writes it
in fixed notation when the rounded value's decimal exponent k is in
[-4, 16].  For 1e-4 <= x < 1e16 (k from -4 to 15) this module finds
those digits in exact arithmetic: N = x * 10**(16 - k) rounded to an
integer, with 10**16 <= N < 10**17.  np.log10 only guesses k; the range
check on N decides it.  Every other value (0, -0, the residues below
1e-4, values that need an exponent, any N out of range) goes through
"%.17g", one value at a time, and its text is laid out like the digits,
so no byte comes from a numpy transcendental.  The module never imports
numpy; its caller passes it in.
"""

import functools


def _split(x):
    """Veltkamp's split of the double ``x`` (a float or an array) into
    (hi, lo), x == hi + lo, each with at most 26 significant bits."""
    t = 134217729.0 * x  # 2**27 + 1
    hi = t - (t - x)
    return hi, x - hi


#: (10**s, its two split halves) for s = 0..22; 10**s is exact up to 22.
_POW10 = [(float(10 ** s), *_split(float(10 ** s))) for s in range(23)]


def _scaled_digits(np, x, s):
    """``x * 10**s`` rounded half to even, as int64, where the exact
    product lies in [2**53, 2**63).  Dekker's product gives it exactly as
    hi + lo (Numer. Math. 18, 224, 1971); hi >= 2**53 is then an even
    integer and |lo| <= 8, so hi + rint(lo) is the rounding."""
    p, p_hi, p_lo = np.array(_POW10)[np.clip(s, 0, 22)].T
    hi = x * p
    x_hi, x_lo = _split(x)
    lo = ((x_hi * p_hi - hi) + x_hi * p_lo + x_lo * p_hi) + x_lo * p_lo
    return hi.astype(np.int64) + np.rint(lo).astype(np.int64)


def _fixed_digits(np, x):
    """``(fixed, k, n)`` for the array ``x``: whether "%.17g" writes each
    value in fixed notation with a decimal exponent k from -4 to 15, that
    k, and the 17 significant digits as the integer n in [10**16, 10**17).
    k is 0 and n is 10**16 where ``fixed`` is false."""
    fixed = (x >= 1e-4) & (x < 1e16)
    x = np.where(fixed, x, 1.0)
    k = np.floor(np.log10(x)).astype(np.int64)
    n = _scaled_digits(np, x, 16 - k)
    low, high = n < 10 ** 16, n >= 10 ** 17
    redo = np.flatnonzero(low | high)
    if redo.size:
        k[redo] += high[redo].astype(np.int64) - low[redo]
        n[redo] = _scaled_digits(np, x[redo], 16 - k[redo])
    fixed &= (n >= 10 ** 16) & (n < 10 ** 17)
    k[~fixed] = 0
    n[~fixed] = 10 ** 16
    return fixed, k, n


def _write_digits(np, n, rows):
    """Write the 17 digits of each n in [10**16, 10**17) as ASCII codes
    into the uint8 array ``rows`` (17 by len(n)), most significant first,
    and return the index of each n's last nonzero digit."""
    top = n // 10 ** 9
    parts = np.stack((top, n - top * 10 ** 9)).astype(np.int32)  # digits 0-7 and 8-16
    for i in range(8):  # rows 7 - i and 16 - i
        q = parts // 10
        np.subtract(parts + 48, q * 10, out=rows[7 - i:17 - i:9], casting="unsafe")
        parts = q
    rows[8] = parts[1] + 48
    return ((rows != ord("0")) * np.arange(17, dtype=np.uint8)[:, None]).max(axis=0)


def _layout(k: int, last: int) -> list:
    """Where the characters of a fixed-notation value with exponent ``k``
    and last nonzero digit ``last`` come from: a digit index 0..16, or
    the character "." or "0"."""
    if k < 0:
        return ["0", ".", *["0"] * (-k - 1), *range(last + 1)]
    return [*range(k + 1), *([".", *range(k + 1, last + 1)] if last > k else [])]


_EXPONENTS = range(-4, 16)

#: Character rows per value: its 17 digits, or its "%.17g" text, which is
#: at most 24 characters long ("-2.2250738585072014e-308").
_TEXT_ROWS = 24

#: Every layout of a value's text: those of fixed notation by exponent and
#: last nonzero digit (index (k + 4) * 17 + last), then "%.17g" texts
#: taken as they are, by length (index _VERBATIM + length - 1).
_LAYOUTS = [_layout(k, last) for k in _EXPONENTS for last in range(17)]
_VERBATIM = len(_LAYOUTS)
_LAYOUTS += [list(range(length)) for length in range(1, _TEXT_ROWS + 1)]

#: Pairs per block of ``pair_texts`` (4,096 values) and per chunk of str
#: in ``PairTexts``, and pairs per gather: a block's arrays stay near
#: 200 kB.  Of blocks of 2,048 to 8,192 values, 4,096 measured fastest and
#: peaked lowest.
_BLOCK_PAIRS = 2048
_GATHER_PAIRS = 512


@functools.lru_cache(maxsize=None)
def _pair_layouts(np, sep: str, end: str):
    """Gather tables of ``pair_texts`` for one ``sep`` and ``end``:
    ``(consts, head, head_len, tails, tail_at)``.

    A block's characters are rows of its values: the constant rows
    ``consts`` (NUL, ".", "0", then ``sep`` and ``end``), then _TEXT_ROWS
    rows of each value's digits or text.  The values of a block are its
    r_max_a values, then its r_max_b values, so row r of value i of n
    pairs is entry 2 r n + i of the flat block for r_max_a and
    2 r n + n + i for r_max_b: a table entry holds 2 r or 2 r + 1, and
    entry * n + i is the flat index.  Each layout of _LAYOUTS has a row of
    ``head``, r_max_a's text and ``sep``, and a tail, r_max_b's text and
    ``end``: row ``tail_at[c] - s`` of ``tails`` is layout c's tail from
    column s on.  Columns past a text hold 0, which is NUL.
    """
    consts = "\0.0" + sep + end

    def codes(text, half):
        return [2 * (len(consts) + c) + half if isinstance(c, int) else 2 * consts.index(c)
                for c in text]

    heads = [codes(text, 0) + codes(sep, 0) for text in _LAYOUTS]
    tails = [codes(text, 1) + codes(end, 0) for text in _LAYOUTS]
    shift = max(map(len, heads))  # the largest start column of a tail
    width = shift + max(map(len, tails))
    head = np.zeros((len(_LAYOUTS), width), np.int8)
    tail = np.zeros((len(_LAYOUTS), shift + width), np.int8)
    for i, (h, t) in enumerate(zip(heads, tails)):
        head[i, :len(h)] = h
        tail[i, shift:shift + len(t)] = t
    return (np.array([[ord(c)] for c in consts], np.uint8), head, np.array(list(map(len, heads))),
            np.lib.stride_tricks.sliding_window_view(tail.ravel(), width),
            np.arange(len(_LAYOUTS)) * (shift + width) + shift)


def pair_texts(np, ra, rb, sep: str, end: str):
    """``f"%.17g{sep}%.17g{end}" % (a, b)`` for each pair of the rate
    columns ``ra`` and ``rb``, on the numpy module ``np``, as a
    ``PairTexts``; or None if a value is not finite.

    In blocks of _BLOCK_PAIRS pairs, ``_fixed_digits`` finds each value's
    digits and ``_write_digits`` writes them as characters, or a value
    outside fixed notation gets its "%.17g" text written there instead.
    The tables of ``_pair_layouts`` then gather each pair's characters into
    its row of codes, _GATHER_PAIRS pairs at a time."""
    consts, head, head_len, tails, tail_at = _pair_layouts(np, sep, end)
    a, b = np.fromiter(ra, float, len(ra)), np.fromiter(rb, float, len(rb))
    if not (np.isfinite(a).all() and np.isfinite(b).all()):
        return None
    codes = np.empty((len(ra), head.shape[1]), np.uint8)
    for first in range(0, len(ra), _BLOCK_PAIRS):
        x = np.concatenate((a[first:first + _BLOCK_PAIRS], b[first:first + _BLOCK_PAIRS]))
        n = len(x) // 2
        fixed, k, digits = _fixed_digits(np, x)
        chars = np.empty((len(consts) + _TEXT_ROWS, 2 * n), np.uint8)
        chars[:len(consts)] = consts
        text_rows = chars[len(consts):]
        layout = (k - _EXPONENTS[0]) * 17 + _write_digits(np, digits, text_rows[:17])
        other = np.flatnonzero(~fixed)
        if other.size:  # "%.17g" texts, padded with spaces to _TEXT_ROWS
            padded = (f"%-{_TEXT_ROWS}.17g" * other.size) % tuple(x[other].tolist())
            padded = np.frombuffer(padded.encode("ascii"), np.uint8).reshape(-1, _TEXT_ROWS)
            is_text = padded != ord(" ")
            layout[other] = _VERBATIM - 1 + is_text.sum(axis=1)
            text_rows[:, other] = (padded * is_text).T
        head_rows, tail_rows = layout[:n], layout[n:]
        cut = head_len[head_rows]
        for sub in range(0, n, _GATHER_PAIRS):
            rows = slice(sub, sub + _GATHER_PAIRS)
            index = head[head_rows[rows]]
            index += tails[tail_at[tail_rows[rows]] - cut[rows]]
            index = np.multiply(index, n, dtype=np.intp)
            index += np.arange(sub, sub + len(index))[:, None]
            chars.ravel().take(index, out=codes[first + sub:first + sub + len(index)], mode="clip")
    return PairTexts(codes)


class PairTexts:
    """The pair texts of ``pair_texts``: ``codes`` holds each pair's
    text as one row of ASCII codes padded with NUL.  A slice is the list of
    those str.

    The str are made a chunk of _BLOCK_PAIRS pairs at a time, starting
    at the slice asked for, and the last chunk is kept, so the grid rows of
    a layer, read in order, are each made once per layer.  A row of codes
    takes about half the memory of its str, so a surface holds its rate
    pairs in half the memory, at the cost of making a mirrored layer's str
    twice."""

    def __init__(self, codes):
        self._codes = codes
        self._chunk = (0, 0, [])

    def __len__(self) -> int:
        return len(self._codes)

    def __getitem__(self, rows: slice) -> list:
        start, stop, _ = rows.indices(len(self))
        first, last, texts = self._chunk
        if not first <= start <= stop <= last:
            first, last = start, min(len(self), max(stop, start + _BLOCK_PAIRS))
            width = self._codes.shape[1]
            texts = self._codes[first:last].astype("uint32").view(f"U{width}").ravel().tolist()
            self._chunk = first, last, texts
        return texts[start - first:stop - first]
