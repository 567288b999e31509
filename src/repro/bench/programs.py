"""MiniC sources for the paper's examples and the WCET benchmark set.

The paper evaluates on real programs (Mälardalen / MiBench /
mediaBench).  Those sources cannot be shipped or compiled here, so each
benchmark is replaced by a synthetic MiniC kernel that preserves the
*cache-relevant structure* of the original: roughly how much state it
streams through the cache, how many data-dependent branches it has, which
tables the two sides of each branch touch, and which previously loaded
data is re-used afterwards.  The absolute miss counts therefore differ
from the paper, but the comparisons the paper makes (speculative vs
non-speculative, merge strategies, depth bounding) exercise the same code
paths and show the same shape.

All WCET kernels are parameterised by the number of cache lines of the
evaluation cache so the suite can be scaled; the structural constants
below are chosen for the default 64-line bench cache (4 KB), keeping the
pure-Python analysis fast while preserving the "working set roughly fills
the cache" property that makes speculation observable.
"""

from __future__ import annotations

from collections.abc import Callable

# ----------------------------------------------------------------------
# Paper examples
# ----------------------------------------------------------------------


def motivating_example_source(num_lines: int = 512, line_size: int = 64) -> str:
    """The Figure 2 program, parametric in the cache geometry.

    ``ph`` occupies ``num_lines - 2`` lines, ``l1``/``l2``/``p`` one line
    each and ``k`` lives in a register, so that non-speculatively the
    final ``ph[k]`` access is a guaranteed hit while a single mispredicted
    excursion evicts the first ``ph`` line.
    """
    ph_lines = num_lines - 2
    ph_bytes = ph_lines * line_size
    return f"""
// Figure 2: timing side channel enabled by speculative execution.
char ph[{ph_bytes}];
char l1[{line_size}];
char l2[{line_size}];
char p;
secret reg char k;

int main() {{
  reg int i;
  for (i = 0; i < {ph_bytes}; i += {line_size}) {{
    ph[i];                       // line 3: preload the placeholder array
  }}
  if (p == 0) {{                 // line 4: branch on an uncached variable
    l1[0];                       // line 5
  }} else {{
    l2[0];                       // line 7
  }}
  ph[k];                         // line 8: secret-indexed access
  return 0;
}}
"""


def quantl_client_source() -> str:
    """The Figure 8 DSP kernel (quantl) wrapped by a small driver.

    This is the paper's running example for the fixed-point computation
    (Tables 1 and 2, Figure 9): the search loop over ``decis_levl`` is
    *not* unrolled (it contains a ``break``), and the final ``if``/``else``
    selects between the positive and negative quantisation tables, which
    is exactly where speculation touches both tables in one execution.
    """
    return """
// Figure 8: code snippet from a real-time DSP program (adpcm/quantl).
int quant26bt_pos[31] = { 61,60,59,58,57,56,55,54,53,52,51,50,49,48,47,46,
                          45,44,43,42,41,40,39,38,37,36,35,34,33,32,32 };
int quant26bt_neg[31] = { 63,62,31,30,29,28,27,26,25,24,23,22,21,20,19,18,
                          17,16,15,14,13,12,11,10,9,8,7,6,5,4,4 };
int decis_levl[30] = { 280,576,880,1200,1520,1864,2208,2584,2960,3376,3784,
                       4240,4696,5200,5712,6288,6864,7520,8184,8968,9752,
                       10712,11664,12896,14120,15840,17560,20456,23352,32767 };

int quantl(int el, int detl) {
  int ril;
  int mil;
  long wd;
  long decis;
  wd = my_abs(el);
  for (mil = 0; mil < 30; mil = mil + 1) {
    decis = (decis_levl[mil] * detl) >> 15;
    if (wd <= decis) break;
  }
  if (el >= 0) ril = quant26bt_pos[mil];
  else ril = quant26bt_neg[mil];
  return ril;
}

int main() {
  int el;
  int detl;
  int out;
  out = quantl(el, detl);
  return out;
}
"""


def figure7_source() -> str:
    """The Figure 7 diamond used to illustrate Just-in-Time merging.

    Block 1 loads ``a``, ``b`` and ``c``; the branch loads ``d`` on one
    side and ``e`` on the other; block 4 re-loads ``a``.  With a 4-line
    cache, the non-speculative analysis keeps ``a``, ``b``, ``c`` cached at
    block 4, whereas a sound speculative analysis must account for both
    ``d`` and ``e`` being loaded, which evicts ``a``.
    """
    return """
// Figure 7: merge-strategy example (analyse with a 4-line cache).
char a[64]; char b[64]; char c[64]; char d[64]; char e[64];
reg int p;

int main() {
  a[0]; b[0]; c[0];        // basic block 1
  if (p > 0) {
    d[0];                  // basic block 2
  } else {
    e[0];                  // basic block 3
  }
  a[0];                    // basic block 4
  return 0;
}
"""


def figure11_source(iterations: int = 3) -> str:
    """The Figure 11 loop used to motivate the shadow-variable refinement.

    ``a`` is loaded before the loop; each iteration branches and loads
    either ``b`` or ``c``.  Without shadow variables the join at the loop
    head keeps aging ``a`` until it is (spuriously) evicted from the
    abstract cache; with them, ``a`` stays a must hit.
    """
    return f"""
// Figure 11 / Figure 13: precision loss at loop joins (4-line cache).
char a[64]; char b[64]; char c[64];
int n;

int main() {{
  reg int i;
  a[0];
  for (i = 0; i < {iterations}; i = i + 1) {{
    if (n > i) {{
      b[0];
    }} else {{
      c[0];
    }}
  }}
  a[0];
  return 0;
}}
"""


# ----------------------------------------------------------------------
# Table 3: execution-time-estimation benchmark set
# ----------------------------------------------------------------------
#
# Every generator receives the number of cache lines of the evaluation
# cache and the line size; arrays are sized as a fraction of the cache so
# the structural properties (fits / barely fits / overflows under
# speculation) are preserved at any scale.


def _lines(fraction: float, num_lines: int, minimum: int = 1) -> int:
    return max(minimum, int(num_lines * fraction))


def adpcm_source(num_lines: int = 64, line_size: int = 64) -> str:
    """ADPCM motor control: quantl-style decision loop plus a state buffer
    that nearly fills the cache and is re-used after the branch."""
    state_lines = _lines(0.82, num_lines)
    state_bytes = state_lines * line_size
    reuse = min(8, state_lines)
    reuse_stmts = "\n  ".join(f"state[{i * line_size}];" for i in range(reuse))
    return f"""
// adpcm (WCET@mdh): motor-control quantiser.
char state[{state_bytes}];
int quant_pos[31] = {{ 61,60,59,58,57,56,55,54,53,52,51,50,49,48,47,46,
                      45,44,43,42,41,40,39,38,37,36,35,34,33,32,32 }};
int quant_neg[31] = {{ 63,62,31,30,29,28,27,26,25,24,23,22,21,20,19,18,
                      17,16,15,14,13,12,11,10,9,8,7,6,5,4,4 }};
int decis_levl[30] = {{ 280,576,880,1200,1520,1864,2208,2584,2960,3376,3784,
                       4240,4696,5200,5712,6288,6864,7520,8184,8968,9752,
                       10712,11664,12896,14120,15840,17560,20456,23352,32767 }};
int el; int detl; int ril;

int main() {{
  reg int i;
  int mil;
  long wd;
  long decis;
  for (i = 0; i < {state_bytes}; i += {line_size}) {{
    state[i];                                 // warm the sample buffer
  }}
  wd = my_abs(el);
  for (mil = 0; mil < 30; mil = mil + 1) {{
    decis = (decis_levl[mil] * detl) >> 15;
    if (wd <= decis) break;
  }}
  if (el >= 0) ril = quant_pos[mil];
  else ril = quant_neg[mil];
  {reuse_stmts}
  return ril;
}}
"""


def susan_source(num_lines: int = 64, line_size: int = 64) -> str:
    """SUSAN image processing: brightness LUT plus an image strip; the
    corner/edge decision selects between two response tables."""
    image_lines = _lines(0.86, num_lines)
    image_bytes = image_lines * line_size
    lut_bytes = 4 * line_size
    return f"""
// susan (MiBench): smallest-univalue-segment corner detector.
char image[{image_bytes}];
char brightness_lut[{lut_bytes}];
int corner_response[{line_size}];
int edge_response[{line_size}];
int threshold; int total;

int main() {{
  reg int i;
  int acc;
  int centre;
  for (i = 0; i < {lut_bytes}; i += {line_size}) {{
    brightness_lut[i];                        // build the brightness LUT
  }}
  for (i = 0; i < {image_bytes}; i += {line_size}) {{
    image[i];                                 // stream one image strip
  }}
  acc = 0;
  centre = image[0] + threshold;
  if (centre > 40) {{
    acc = corner_response[0] + corner_response[16];
  }} else {{
    acc = edge_response[0] + edge_response[16];
  }}
  total = acc + brightness_lut[0] + brightness_lut[{line_size}];
  image[0]; image[{line_size}]; image[{2 * line_size}]; image[{3 * line_size}];
  return total;
}}
"""


def layer3_source(num_lines: int = 64, line_size: int = 64) -> str:
    """MP3 layer-3 decoding: subband samples plus two window tables chosen
    by the block-type branch, then reuse of the sample buffer."""
    samples_lines = _lines(0.89, num_lines)
    samples_bytes = samples_lines * line_size
    window_bytes = 3 * line_size
    return f"""
// layer3 (MiBench): hybrid synthesis window selection.
int subband[{samples_bytes // 4}];
int window_long[{window_bytes // 4}];
int window_short[{window_bytes // 4}];
int block_type; int energy;

int main() {{
  reg int i;
  int acc;
  for (i = 0; i < {samples_bytes // 4}; i += {line_size // 4}) {{
    subband[i];                               // dequantised samples
  }}
  acc = 0;
  if (block_type == 2) {{
    acc = acc + window_short[0];
    acc = acc + window_short[{line_size // 4}];
    acc = acc + window_short[{2 * (line_size // 4)}];
  }} else {{
    acc = acc + window_long[0];
    acc = acc + window_long[{line_size // 4}];
    acc = acc + window_long[{2 * (line_size // 4)}];
  }}
  if (energy > 100) {{
    acc = acc + subband[0];
  }} else {{
    acc = acc - subband[{line_size // 4}];
  }}
  subband[0]; subband[{line_size // 4}]; subband[{2 * (line_size // 4)}];
  subband[{3 * (line_size // 4)}]; subband[{4 * (line_size // 4)}];
  return acc;
}}
"""


def jcmarker_source(num_lines: int = 64, line_size: int = 64) -> str:
    """JPEG marker writing: quantisation and Huffman tables selected by a
    chain of component branches."""
    qtable_bytes = _lines(0.35, num_lines) * line_size
    htable_bytes = _lines(0.35, num_lines) * line_size
    return f"""
// jcmarker (MiBench cjpeg): emit DQT/DHT markers.
char qtable[{qtable_bytes}];
char htable_dc[{htable_bytes}];
char htable_ac[{htable_bytes}];
int component; int precision; int written;

int main() {{
  reg int i;
  int acc;
  for (i = 0; i < {qtable_bytes}; i += {line_size}) {{
    qtable[i];                                // write the quantisation table
  }}
  acc = 0;
  if (precision > 8) {{
    for (i = 0; i < {htable_bytes}; i += {line_size}) {{
      htable_dc[i];
    }}
    acc = acc + 1;
  }} else {{
    for (i = 0; i < {htable_bytes}; i += {line_size}) {{
      htable_ac[i];
    }}
    acc = acc + 2;
  }}
  if (component == 0) {{
    acc = acc + qtable[0];
  }} else {{
    acc = acc + qtable[{line_size}];
  }}
  qtable[0]; qtable[{line_size}]; qtable[{2 * line_size}];
  written = acc;
  return written;
}}
"""


def jdmarker_source(num_lines: int = 64, line_size: int = 64) -> str:
    """JPEG marker reading: several data-dependent marker branches, each
    touching its own table, with heavy reuse of the header buffer."""
    header_lines = _lines(0.84, num_lines)
    header_bytes = header_lines * line_size
    table_bytes = 4 * line_size
    reuse = min(10, header_lines)
    reuse_stmts = "\n  ".join(f"header[{i * line_size}];" for i in range(reuse))
    return f"""
// jdmarker (MiBench djpeg): parse JFIF markers.
char header[{header_bytes}];
char sof_table[{table_bytes}];
char sos_table[{table_bytes}];
char dqt_table[{table_bytes}];
char dht_table[{table_bytes}];
int marker; int restart;

int main() {{
  reg int i;
  int acc;
  for (i = 0; i < {header_bytes}; i += {line_size}) {{
    header[i];                                // read the header stream
  }}
  acc = 0;
  if (marker == 192) {{
    sof_table[0]; sof_table[{line_size}]; sof_table[{2 * line_size}];
    acc = acc + 1;
  }} else {{
    sos_table[0]; sos_table[{line_size}]; sos_table[{2 * line_size}];
    acc = acc + 2;
  }}
  if (marker == 219) {{
    dqt_table[0]; dqt_table[{line_size}];
  }} else {{
    dht_table[0]; dht_table[{line_size}];
  }}
  if (restart > 0) {{
    acc = acc + header[0];
  }} else {{
    acc = acc - header[{line_size}];
  }}
  {reuse_stmts}
  return acc;
}}
"""


def jcphuff_source(num_lines: int = 64, line_size: int = 64) -> str:
    """Progressive Huffman encoding: a small working set that fits in the
    cache even under speculation — the case where both analyses agree."""
    counts_bytes = 4 * line_size
    return f"""
// jcphuff (MiBench cjpeg): Huffman entropy encoding counters.
int bit_counts[{counts_bytes // 4}];
int code_table[{counts_bytes // 4}];
int symbol; int emitted;

int main() {{
  reg int i;
  int acc;
  for (i = 0; i < {counts_bytes // 4}; i += {line_size // 4}) {{
    bit_counts[i];
  }}
  acc = 0;
  if (symbol > 128) {{
    acc = code_table[0];
  }} else {{
    acc = code_table[{line_size // 4}];
  }}
  bit_counts[0]; bit_counts[{line_size // 4}];
  emitted = acc;
  return emitted;
}}
"""


def gtk_source(num_lines: int = 64, line_size: int = 64) -> str:
    """GTK plotting: the largest data footprint of the set (the paper notes
    ~3 MB); the plot buffer alone overflows the cache, and the style branch
    adds two more tables on top."""
    plot_lines = _lines(0.89, num_lines)
    plot_bytes = plot_lines * line_size
    style_bytes = 4 * line_size
    reuse = 12
    reuse_stmts = "\n  ".join(f"plot_buffer[{i * line_size}];" for i in range(reuse))
    return f"""
// gtk (MiBench): polyline plotting into a large backing buffer.
char plot_buffer[{plot_bytes}];
char pen_style[{style_bytes}];
char brush_style[{style_bytes}];
int style; int points;

int main() {{
  reg int i;
  int acc;
  for (i = 0; i < {plot_bytes}; i += {line_size}) {{
    plot_buffer[i];                           // rasterise the polyline
  }}
  acc = 0;
  if (style == 1) {{
    pen_style[0]; pen_style[{line_size}]; pen_style[{2 * line_size}];
    acc = acc + 1;
  }} else {{
    brush_style[0]; brush_style[{line_size}]; brush_style[{2 * line_size}];
    acc = acc + 2;
  }}
  if (points > 64) {{
    acc = acc + plot_buffer[0];
  }} else {{
    acc = acc + plot_buffer[{line_size}];
  }}
  {reuse_stmts}
  return acc;
}}
"""


def g72_source(num_lines: int = 64, line_size: int = 64) -> str:
    """G.721/G.723 conversion: predictor state plus two quantisation tables
    selected by the sign of the difference signal."""
    state_bytes = _lines(0.92, num_lines) * line_size
    table_bytes = 2 * line_size
    return f"""
// g72 (mediaBench): ADPCM coder state update.
int predictor_state[{state_bytes // 4}];
int quan_pos[{table_bytes // 4}];
int quan_neg[{table_bytes // 4}];
int diff; int step;

int main() {{
  reg int i;
  int acc;
  for (i = 0; i < {state_bytes // 4}; i += {line_size // 4}) {{
    predictor_state[i];
  }}
  acc = 0;
  if (diff >= 0) {{
    acc = quan_pos[0] + quan_pos[{line_size // 4}];
  }} else {{
    acc = quan_neg[0] + quan_neg[{line_size // 4}];
  }}
  if (step > 16) {{
    acc = acc + predictor_state[0];
  }} else {{
    acc = acc - predictor_state[{line_size // 4}];
  }}
  predictor_state[0]; predictor_state[{line_size // 4}];
  predictor_state[{2 * (line_size // 4)}];
  return acc;
}}
"""


def vga_source(num_lines: int = 64, line_size: int = 64) -> str:
    """VGA driver: a tiny routine with very few branches and a working set
    far below the cache size — speculation changes nothing here, matching
    the paper's row where both analyses report the same misses."""
    palette_bytes = 2 * line_size
    return f"""
// vga (mediaBench): Borland Graphics Interface palette write.
char palette[{palette_bytes}];
int mode;

int main() {{
  int acc;
  palette[0];
  palette[{line_size}];
  acc = 0;
  if (mode == 3) {{
    acc = palette[0];
  }} else {{
    acc = palette[{line_size}];
  }}
  palette[0];
  return acc;
}}
"""


def stc_source(num_lines: int = 64, line_size: int = 64) -> str:
    """Epson Stylus-Color printer driver: dithering tables plus a raster
    strip; the colour-plane branch touches plane-specific tables."""
    raster_lines = _lines(0.89, num_lines)
    raster_bytes = raster_lines * line_size
    dither_bytes = 3 * line_size
    reuse = min(7, raster_lines)
    reuse_stmts = "\n  ".join(f"raster[{i * line_size}];" for i in range(reuse))
    return f"""
// stc (mediaBench): printer driver colour dithering.
char raster[{raster_bytes}];
char dither_cyan[{dither_bytes}];
char dither_magenta[{dither_bytes}];
int plane; int row;

int main() {{
  reg int i;
  int acc;
  for (i = 0; i < {raster_bytes}; i += {line_size}) {{
    raster[i];                                // fetch the raster strip
  }}
  acc = 0;
  if (plane == 0) {{
    dither_cyan[0]; dither_cyan[{line_size}]; dither_cyan[{2 * line_size}];
    acc = acc + 1;
  }} else {{
    dither_magenta[0]; dither_magenta[{line_size}]; dither_magenta[{2 * line_size}];
    acc = acc + 2;
  }}
  if (row > 0) {{
    acc = acc + raster[0];
  }} else {{
    acc = acc - raster[{line_size}];
  }}
  {reuse_stmts}
  return acc;
}}
"""


#: Registry of the Table-3 benchmark set: name -> source generator.
WCET_BENCHMARKS: dict[str, Callable[[int, int], str]] = {
    "adpcm": adpcm_source,
    "susan": susan_source,
    "layer3": layer3_source,
    "jcmarker": jcmarker_source,
    "jdmarker": jdmarker_source,
    "jcphuff": jcphuff_source,
    "gtk": gtk_source,
    "g72": g72_source,
    "vga": vga_source,
    "stc": stc_source,
}


def wcet_benchmark_source(name: str, num_lines: int = 64, line_size: int = 64) -> str:
    """Source text of one Table-3 benchmark, scaled to the given cache."""
    try:
        generator = WCET_BENCHMARKS[name]
    except KeyError as exc:
        raise KeyError(
            f"unknown WCET benchmark {name!r}; known: {sorted(WCET_BENCHMARKS)}"
        ) from exc
    return generator(num_lines, line_size)


# ----------------------------------------------------------------------
# Scenario-scaling kernels
# ----------------------------------------------------------------------
def branchy_kernel_source(num_branches: int, line_size: int = 64) -> str:
    """A straight-line sequence of ``num_branches`` data-dependent diamonds.

    Every branch condition loads from its own (uncached) array, so each
    branch is a *may-miss* condition and contributes two full-depth
    speculation scenarios; the branch bodies alternate over four shared
    arrays so the abstract states stay small.  The result is a kernel
    whose scenario count — and, with overlapping windows, per-block slot
    population — scales linearly with ``num_branches`` while every other
    dimension stays fixed: exactly the workload that separates a
    scheduler paying O(#scenarios) per block visit from a sparse one.

    Used by ``benchmarks/bench_scenario_scaling.py`` and the engine's
    differential tests; not part of any paper table.
    """
    if num_branches < 1:
        raise ValueError("num_branches must be positive")
    decls = [f"char cond{i}[{line_size}];" for i in range(num_branches)]
    decls.append(
        f"char tka[{line_size}]; char tkb[{line_size}]; "
        f"char ela[{line_size}]; char elb[{line_size}];"
    )
    body = []
    for i in range(num_branches):
        taken = "tka" if i % 2 == 0 else "tkb"
        fallthrough = "ela" if i % 2 == 0 else "elb"
        body.append(f"  if (cond{i}[0]) {{ {taken}[0]; }} else {{ {fallthrough}[0]; }}")
    return (
        "\n".join(decls)
        + "\n\nint main() {\n"
        + "\n".join(body)
        + "\n  return 0;\n}\n"
    )


def taint_sparse_kernel_source(
    num_branches: int, num_lines: int = 64, line_size: int = 64
) -> str:
    """``num_branches`` access-free speculative diamonds plus one leaky tail.

    Each diamond branches on a register variable and its arm performs
    register-only arithmetic, so the speculative windows of its two
    scenarios are long (they run through the following diamonds up to
    the depth bound or the pre-tail ``fence``) but contain **no memory
    access**.  The tail is the Figure-2 shape (preload, an
    uncached-condition branch, a secret-indexed access), so exactly two
    scenarios touch memory and the program still reports its
    speculation-only leak.

    Used by the IR verifier tests; not part of any paper table.
    """
    if num_branches < 1:
        raise ValueError("num_branches must be positive")
    ph_lines = max(2, num_lines - 2)
    ph_bytes = ph_lines * line_size
    decls = [
        f"char ph[{ph_bytes}];",
        f"char l1[{line_size}];",
        f"char l2[{line_size}];",
        "char q;",
        "reg int p;",
        "secret reg char k;",
    ]
    body = []
    for i in range(num_branches):
        body.append(f"  if (p > {i}) {{ p = p + {i + 1}; }}")
    # One fence keeps every sparse window out of the access-bearing tail.
    body.append("  fence;")
    body += [
        "  reg int i;",
        f"  for (i = 0; i < {ph_bytes}; i += {line_size}) {{",
        "    ph[i];",
        "  }",
        "  if (q == 0) {",
        "    l1[0];",
        "  } else {",
        "    l2[0];",
        "  }",
        "  ph[k];",
    ]
    return (
        "\n".join(decls)
        + "\n\nint main() {\n"
        + "\n".join(body)
        + "\n  return 0;\n}\n"
    )
