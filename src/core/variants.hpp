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
static_assert(DoublyList::kContainsCasFree &&
                  DoublyListWith<reclaim::Ebr>::kContainsCasFree &&
                  DoublyListWith<reclaim::Hp>::kContainsCasFree &&
                  DoublyCursorList::kContainsRestartFree &&
                  DoublyCursorListEbr::kContainsRestartFree &&
                  !DoublyCursorListHp::kContainsRestartFree,
              "back-pointer rows: always mild, restart-free off hazards");

}  // namespace pragmalist::core
