// Umbrella header: the six paper variants (a-f) plus the ablation-only
// configurations, exactly as the bench layer names them. All of them
// are instantiations of the one list engine, ListFamily
// (singly_family.hpp):
//
//   a) DraconicList        e) SinglyFetchOrList
//   b) SinglyList          f) DoublyCursorList
//   c) DoublyList             SinglyCursorBackoffList (ablation)
//   d) SinglyCursorList       DoublyCursorNoPrecList  (ablation)
//
// Each variant also exists under real mid-run reclamation (catalog ids
// `<variant>/ebr` and `<variant>/hp`): its `XxxListWith<R>` alias
// template (singly_family.hpp) names any cell of the grid. The EBR/HP
// aliases below are the ones the tests name.
#pragma once

#include "src/core/iset.hpp"
#include "src/core/singly_family.hpp"
#include "src/reclaim/reclaim.hpp"

namespace pragmalist::core {

using SinglyListEbr = SinglyListWith<reclaim::Ebr>;
using SinglyCursorListEbr = SinglyCursorListWith<reclaim::Ebr>;
using SinglyFetchOrListEbr = SinglyFetchOrListWith<reclaim::Ebr>;
using DoublyCursorListEbr = DoublyCursorListWith<reclaim::Ebr>;

using SinglyListHp = SinglyListWith<reclaim::Hp>;
using SinglyCursorListHp = SinglyCursorListWith<reclaim::Hp>;
using SinglyFetchOrListHp = SinglyFetchOrListWith<reclaim::Hp>;
using DoublyCursorListHp = DoublyCursorListWith<reclaim::Hp>;

// The progress-guarantee matrix of iset.hpp, made compile-time law.
// Every mild variant's contains is CAS-free under every reclaimer; on
// arena/EBR it is additionally restart-free -- one forward pass by
// construction. A change that adds a CAS or a retry loop to those
// paths must flip the engine's trait and fails right here, instead of
// showing up as a latency regression three benches later.
static_assert(SinglyList::kContainsCasFree &&
                  SinglyListEbr::kContainsCasFree &&
                  SinglyListHp::kContainsCasFree,
              "mild singly contains must stay CAS-free");
static_assert(SinglyList::kContainsRestartFree &&
                  SinglyListEbr::kContainsRestartFree,
              "arena/EBR singly contains must stay restart-free");
static_assert(!SinglyListHp::kContainsRestartFree,
              "HP contains is bounded-restart, not restart-free");
static_assert(SinglyCursorList::kContainsRestartFree &&
                  SinglyFetchOrList::kContainsRestartFree &&
                  SinglyCursorListEbr::kContainsRestartFree &&
                  SinglyFetchOrListEbr::kContainsRestartFree,
              "cursor/fetch-or variants share the mild fast lane");
static_assert(!DraconicList::kContainsCasFree &&
                  !DraconicListWith<reclaim::Ebr>::kContainsCasFree &&
                  !DraconicListWith<reclaim::Hp>::kContainsCasFree,
              "draconic readers help unlink: CAS by design");
// The update path (iset.hpp matrix): a mild arena/EBR remove is one
// locate(), a mark (one fetch_or, or a lock-free CAS-mark loop that the
// restart counter does not count) and at most one unlink CAS -- it never
// restarts.
// Draconic removes help (restart on a lost helping CAS); HP removes run
// the bounded-restart anchored walk.
static_assert(SinglyList::kRemoveRestartFree &&
                  SinglyListEbr::kRemoveRestartFree &&
                  SinglyCursorList::kRemoveRestartFree &&
                  SinglyCursorListEbr::kRemoveRestartFree &&
                  SinglyFetchOrList::kRemoveRestartFree &&
                  SinglyFetchOrListEbr::kRemoveRestartFree &&
                  DoublyList::kRemoveRestartFree &&
                  DoublyListWith<reclaim::Ebr>::kRemoveRestartFree &&
                  DoublyCursorList::kRemoveRestartFree &&
                  DoublyCursorListEbr::kRemoveRestartFree &&
                  SinglyCursorBackoffList::kRemoveRestartFree &&
                  DoublyCursorNoPrecList::kRemoveRestartFree,
              "arena/EBR mild remove must stay restart-free");
static_assert(!SinglyListHp::kRemoveRestartFree &&
                  !SinglyFetchOrListHp::kRemoveRestartFree &&
                  !DoublyCursorListHp::kRemoveRestartFree,
              "HP remove is bounded-restart, not restart-free");
static_assert(!DraconicList::kRemoveRestartFree &&
                  !DraconicListWith<reclaim::Ebr>::kRemoveRestartFree,
              "draconic removes restart on a lost helping CAS");
static_assert(DoublyList::kContainsCasFree &&
                  DoublyListWith<reclaim::Ebr>::kContainsCasFree &&
                  DoublyListWith<reclaim::Hp>::kContainsCasFree &&
                  DoublyCursorList::kContainsRestartFree &&
                  DoublyCursorListEbr::kContainsRestartFree &&
                  !DoublyCursorListHp::kContainsRestartFree,
              "back-pointer rows: always mild, restart-free off hazards");

}  // namespace pragmalist::core
