// Lane-interleaved AES-CBC.  Both directions run aes.h's table-driven
// round helpers (encrypt_round / decrypt_round and their final-round
// variants), the same code as the scalar aes::encrypt_block /
// decrypt_block, with the round loop outermost and a lane loop innermost.
#include "aes_mb.h"

#include <algorithm>
#include <stdexcept>
#include <vector>

namespace wsp::aes_mb {
namespace {

using aes::State;

// One State per lane, stored word-major: a lane's four words are not
// adjacent, which keeps the compiler from packing them into vector
// registers between the scalar table lookups.
template <int Lanes>
struct LaneStates {
  std::uint32_t w[4][Lanes];
  State get(int j) const { return {w[0][j], w[1][j], w[2][j], w[3][j]}; }
  void set(int j, const State& s) {
    for (int c = 0; c < 4; ++c) w[c][j] = s[static_cast<std::size_t>(c)];
  }
};

// Live-lane working set for one lockstep group (uniform round count).
template <int Lanes>
struct Group {
  const std::uint32_t* rk[Lanes];
  const std::uint8_t* in[Lanes];
  std::uint8_t* out[Lanes];
  std::uint8_t* chain[Lanes];
  std::size_t rem[Lanes];
  LaneStates<Lanes> c;  // CBC residue
  int active = 0;

  void add(const CbcLane& l) {
    rk[active] = l.ks->round_keys.data();
    in[active] = l.in;
    out[active] = l.out;
    chain[active] = l.chain;
    rem[active] = l.blocks;
    c.set(active, aes::load_state(l.chain));
    ++active;
  }

  // Retire finished lanes: write their residue back and compact the prefix.
  void compact() {
    for (int j = active - 1; j >= 0; --j) {
      if (rem[j] != 0) continue;
      aes::store_state(c.get(j), chain[j]);
      const int last = active - 1;
      if (j != last) {
        rk[j] = rk[last];
        in[j] = in[last];
        out[j] = out[last];
        chain[j] = chain[last];
        rem[j] = rem[last];
        c.set(j, c.get(last));
      }
      --active;
    }
  }

  void advance(int j) {
    in[j] += 16;
    out[j] += 16;
    --rem[j];
  }
};

template <int Lanes>
void encrypt_group(Group<Lanes>& g, int rounds) {
  const aes::Tables& t = aes::tables();
  LaneStates<Lanes> s;
  while (g.active > 0) {
    const int a = g.active;
    // CBC xor + AddRoundKey(0), all lanes.
    for (int j = 0; j < a; ++j) {
      const State x = aes::xor_state(aes::load_state(g.in[j]), g.rk[j]);
      s.set(j, aes::xor_state(x, g.c.get(j).data()));
    }
    for (int r = 1; r < rounds; ++r) {
      for (int j = 0; j < a; ++j) {
        s.set(j, aes::encrypt_round(s.get(j), g.rk[j] + 4 * r, t));
      }
    }
    // Final round, store, chain.
    for (int j = 0; j < a; ++j) {
      const State y = aes::encrypt_last_round(s.get(j), g.rk[j] + 4 * rounds, t);
      aes::store_state(y, g.out[j]);
      g.c.set(j, y);
      g.advance(j);
    }
    g.compact();
  }
}

template <int Lanes>
void decrypt_group(Group<Lanes>& g, int rounds) {
  const aes::Tables& t = aes::tables();
  LaneStates<Lanes> s, x;
  while (g.active > 0) {
    const int a = g.active;
    for (int j = 0; j < a; ++j) {
      const State in = aes::load_state(g.in[j]);
      x.set(j, in);
      s.set(j, aes::xor_state(in, g.rk[j] + 4 * rounds));
    }
    for (int r = rounds - 1; r >= 1; --r) {
      for (int j = 0; j < a; ++j) {
        s.set(j, aes::decrypt_round(s.get(j), g.rk[j] + 4 * r, t));
      }
    }
    // Final inverse round, then CBC xor against the previous ciphertext.
    for (int j = 0; j < a; ++j) {
      const State p = aes::decrypt_last_round(s.get(j), g.rk[j], t);
      aes::store_state(aes::xor_state(p, g.c.get(j).data()), g.out[j]);
      g.c.set(j, x.get(j));
      g.advance(j);
    }
    g.compact();
  }
}

// Lanes in one group may carry different key sizes; the lockstep round loop
// needs a uniform count, so split the group into equal-rounds runs first.
template <int Lanes, typename Kernel>
void run_by_rounds(CbcLane* lanes, std::size_t n, Kernel kernel) {
  static constexpr int kRounds[3] = {10, 12, 14};
  for (int rounds : kRounds) {
    Group<Lanes> g;
    for (std::size_t i = 0; i < n; ++i) {
      if (lanes[i].blocks == 0 || lanes[i].ks->rounds != rounds) continue;
      g.add(lanes[i]);
      if (g.active == Lanes) {
        kernel(g, rounds);
        g.active = 0;
      }
    }
    if (g.active > 0) kernel(g, rounds);
  }
}

void validate(const CbcLane* lanes, std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) {
    const CbcLane& l = lanes[i];
    if (l.blocks == 0) continue;
    if (l.ks == nullptr || l.in == nullptr || l.out == nullptr ||
        l.chain == nullptr) {
      throw std::invalid_argument("aes_mb: null field in live lane");
    }
    if (l.ks->rounds != 10 && l.ks->rounds != 12 && l.ks->rounds != 14) {
      throw std::invalid_argument("aes_mb: bad key schedule");
    }
  }
}

template <typename Fn1, typename Fn2, typename Fn4, typename Fn8>
void dispatch_width(CbcLane* lanes, std::size_t n, unsigned lane_width,
                    Fn1 f1, Fn2 f2, Fn4 f4, Fn8 f8) {
  if (lane_width == 0 || lane_width > kMaxLanes) {
    throw std::invalid_argument("aes_mb: lane_width must be in [1, 8]");
  }
  validate(lanes, n);
  if (n == 0) return;
  // Sort a working copy so groups hold similarly-sized streams: the active
  // prefix then shrinks late instead of dragging one long lane alone.
  std::vector<CbcLane> work(lanes, lanes + n);
  std::sort(work.begin(), work.end(), [](const CbcLane& a, const CbcLane& b) {
    return a.blocks > b.blocks;
  });
  for (std::size_t off = 0; off < work.size(); off += lane_width) {
    const std::size_t cnt = std::min<std::size_t>(lane_width, work.size() - off);
    CbcLane* grp = work.data() + off;
    if (lane_width <= 1) {
      f1(grp, cnt);
    } else if (lane_width <= 2) {
      f2(grp, cnt);
    } else if (lane_width <= 4) {
      f4(grp, cnt);
    } else {
      f8(grp, cnt);
    }
  }
}

}  // namespace

template <int Lanes>
void encrypt_cbc(CbcLane* lanes, std::size_t n) {
  while (n > Lanes) {
    encrypt_cbc<Lanes>(lanes, std::size_t(Lanes));
    lanes += Lanes;
    n -= Lanes;
  }
  run_by_rounds<Lanes>(lanes, n,
                       [](Group<Lanes>& g, int r) { encrypt_group<Lanes>(g, r); });
}

template <int Lanes>
void decrypt_cbc(CbcLane* lanes, std::size_t n) {
  while (n > Lanes) {
    decrypt_cbc<Lanes>(lanes, std::size_t(Lanes));
    lanes += Lanes;
    n -= Lanes;
  }
  run_by_rounds<Lanes>(lanes, n,
                       [](Group<Lanes>& g, int r) { decrypt_group<Lanes>(g, r); });
}

template void encrypt_cbc<1>(CbcLane*, std::size_t);
template void encrypt_cbc<2>(CbcLane*, std::size_t);
template void encrypt_cbc<4>(CbcLane*, std::size_t);
template void encrypt_cbc<8>(CbcLane*, std::size_t);
template void decrypt_cbc<1>(CbcLane*, std::size_t);
template void decrypt_cbc<2>(CbcLane*, std::size_t);
template void decrypt_cbc<4>(CbcLane*, std::size_t);
template void decrypt_cbc<8>(CbcLane*, std::size_t);

void encrypt_cbc(CbcLane* lanes, std::size_t n, unsigned lane_width) {
  dispatch_width(
      lanes, n, lane_width,
      [](CbcLane* l, std::size_t c) { encrypt_cbc<1>(l, c); },
      [](CbcLane* l, std::size_t c) { encrypt_cbc<2>(l, c); },
      [](CbcLane* l, std::size_t c) { encrypt_cbc<4>(l, c); },
      [](CbcLane* l, std::size_t c) { encrypt_cbc<8>(l, c); });
}

void decrypt_cbc(CbcLane* lanes, std::size_t n, unsigned lane_width) {
  dispatch_width(
      lanes, n, lane_width,
      [](CbcLane* l, std::size_t c) { decrypt_cbc<1>(l, c); },
      [](CbcLane* l, std::size_t c) { decrypt_cbc<2>(l, c); },
      [](CbcLane* l, std::size_t c) { decrypt_cbc<4>(l, c); },
      [](CbcLane* l, std::size_t c) { decrypt_cbc<8>(l, c); });
}

}  // namespace wsp::aes_mb
