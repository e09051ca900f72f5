// Fixture: timer-outside-set-timer. kTimer events pushed into an event queue
// in src/sim/ outside Engine::set_timer must be flagged; mentioning kTimer
// without a push, or pushing non-timer events, must stay silent.
#include <vector>

enum class EventType { kRelease, kCompletion, kTimer };

struct Event {
  double time;
  EventType type;
};

struct BadQueue {
  std::vector<Event> heap_;

  void push_timer(double t) {
    heap_.push_back(Event{t, EventType::kTimer});  // finding 1
  }

  void emplace_timer(double t) {
    heap_.emplace_back(Event{t, EventType::kTimer});  // finding 2
  }

  void fine_non_timer(double t) {
    heap_.push_back(Event{t, EventType::kCompletion});  // ok: not a timer
  }

  bool fine_mention(const Event& e) {
    return e.type == EventType::kTimer;  // ok: no push on this line
  }

  void suppressed(double t) {
    // sjs-lint: allow(timer-outside-set-timer): fixture exercising suppression
    heap_.push_back(Event{t, EventType::kTimer});
  }
};
